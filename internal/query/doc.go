// Package query holds IndexStore, the session-shared statistics and
// uniqueness verdicts over a real source instance. Muse's wizards refute
// the retrievals of their real examples (the Q_Ie of Sec. III-A and
// IV-A) from the instance's unique attributes before scanning an
// assignment table for a witness (internal/core), and the ranker scores
// options from the statistics (internal/rank).
//
// Invariants:
//
//   - Every count is exact: instance.CountDistinct confirms each hash
//     hit by SameValue, and the store renders no value keys.
//   - An IndexStore is safe for concurrent use and never returns a
//     partially built entry. It builds each statistics block and
//     uniqueness verdict once, and a warm UniqueAttrs allocates nothing.
package query
