// Package instance implements instances of nested relational schemas:
// nested sets of tuples whose values are constants, labeled nulls, or
// SetIDs. Labeled nulls and SetIDs are represented as Skolem terms
// (function symbol applied to argument values), which makes the chase
// deterministic.
//
// Invariants:
//
//   - Values (Const, Null, SetRef) are immutable and freely shareable;
//     a constant's hash is set by its constructor, and a term's hash
//     and canonical key are cached behind atomics, so concurrent readers
//     (server sessions sharing one real instance) are race-free.
//   - Identity is structural: two values are equal iff SameValue holds
//     (constants by string, terms by symbol and arguments), tuples iff
//     their slots are pairwise equal, and an occurrence is found by any
//     SetRef equal to its ID. The intern table (constants and nulls),
//     the occurrence table, which interns SetIDs in creation order, and
//     each set's tuples are keyed by a 64-bit content hash; entries
//     sharing a hash are told apart structurally, never by the hash alone.
//   - Tuples are grouped by slot values in one of two ways (index.go):
//     an Index, whose buckets may mix hash-colliding tuples that its
//     callers reject by SameValue, or CountDistinct, which confirms
//     every hash hit by SameValue and so counts exactly. The chase and
//     the query store use nothing else.
//   - Keys are the rendering and ordering encoding, not the identity:
//     Value.Key and Tuple.Key are rendered only when asked for, and
//     they are injective (separator bytes inside constants and symbols
//     are escaped), so key equality agrees with SameValue.
//   - An Instance is not safe for concurrent mutation; concurrent
//     read-only use is.
package instance
