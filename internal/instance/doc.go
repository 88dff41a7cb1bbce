// Package instance implements instances of nested relational schemas:
// nested sets of tuples whose values are constants, labeled nulls, or
// SetIDs. Labeled nulls and SetIDs are represented as Skolem terms
// (function symbol applied to argument values), which makes the chase
// deterministic.
//
// Invariants:
//
//   - Values (Const, Null, SetRef) are plain immutable data, freely
//     shareable: their constructors (C, CI and InternConst; NewNull,
//     NewSetRef, InternNull and InternSet) set every hash, and nothing
//     is cached on a value later, so concurrent readers (server
//     sessions sharing one real instance) never write to one.
//   - Identity is structural: two values are equal iff SameValue holds
//     (constants by string, terms by symbol and arguments), tuples iff
//     their slots are pairwise equal, and an occurrence is found by any
//     SetRef equal to its ID. The intern table (constants and nulls),
//     the occurrence table, which interns SetIDs in creation order, and
//     each set's tuples are keyed by a 64-bit content hash; entries
//     sharing a hash are told apart structurally, never by the hash alone.
//   - Value vectors are grouped in one of three ways (index.go): an
//     Index of a set's tuples, whose buckets may mix hash-colliding
//     tuples that its callers reject by SameValue; CountDistinct, which
//     confirms every hash hit by SameValue and so counts exactly; and a
//     VecMap from value vectors to anything, which confirms every hit
//     the same way. No table of values is keyed by a rendered key.
//   - Keys are the rendering and ordering encoding, not the identity:
//     Value.Key and Tuple.Key are rendered afresh on every call and
//     never cached, and they are injective (separator bytes inside
//     constants and symbols are escaped), so key equality agrees with
//     SameValue. SetVal.Sorted orders a set by key for every renderer.
//   - An Instance is not safe for concurrent mutation; concurrent
//     read-only use is.
package instance
