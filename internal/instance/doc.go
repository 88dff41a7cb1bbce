// Package instance implements instances of nested relational schemas:
// nested sets of tuples whose values are constants, labeled nulls, or
// SetIDs. Labeled nulls and SetIDs are represented as Skolem terms
// (function symbol applied to argument values), which makes the chase
// deterministic and gives every value a canonical string encoding used
// for set-union deduplication.
//
// Invariants:
//
//   - Values (Const, Null, SetRef) are immutable and freely shareable;
//     their canonical keys are cached behind atomic pointers, so
//     concurrent readers (prefetch workers, server sessions sharing
//     one real instance) are race-free.
//   - Two values are equal iff their Key() strings are equal; tuple
//     and set identity derive from value keys, never from pointers.
//   - An Instance is not safe for concurrent mutation; concurrent
//     read-only use is.
package instance
