// Package query holds IndexStore, the statistics and uniqueness
// verdicts of a real source instance, shared by a session's wizards and
// ranker, or by every session a server hosts over one scenario. Muse's
// wizards refute the retrievals of their real examples (the Q_Ie of
// Sec. III-A and IV-A) from the instance's unique attributes before
// scanning an assignment table for a witness (internal/core), and the
// ranker scores options from the statistics (internal/rank).
//
// Invariants:
//
//   - Every count is exact: the instance's counter (instance.Distinct,
//     instance.Unique) confirms each hash hit by SameValue, and the
//     store renders no value keys.
//   - Each top-level set is counted by one statistics pass, and its
//     statistics are slices indexed by atom.
//   - A verdict is the verdict of a full pass over its list: a list with
//     an atom some tuple leaves unset is not unique, and only lists that
//     every tuple sets are passed or decided from kept verdicts (a
//     unique sublist, a repeated superlist).
//   - An IndexStore is safe for concurrent use: one mutex serializes its
//     passes, so each statistics block and verdict is counted once. A
//     call that runs no pass allocates nothing, and a pass allocates
//     nothing beyond the statistics block it builds.
package query
