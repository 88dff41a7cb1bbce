// Package chase implements the chase of a source instance with a set
// of schema mappings (Fagin et al., TCS 2005; Popa et al., VLDB 2002),
// producing the canonical universal solution. Labeled nulls and SetIDs
// are minted as Skolem terms, so the chase is deterministic: chasing
// the same instance twice yields the identical target instance, and
// the union over mappings deduplicates tuples exactly as in Fig. 2 of
// the paper.
//
// Invariants:
//
//   - Determinism: Chase, ChaseSerial, ChaseObs and ChaseCtx produce
//     byte-identical instances for the same input
//     (testdata/scenario_chase.golden pins them).
//   - Cancellation: ChaseCtx aborts promptly once its context is
//     cancelled (the evaluator polls the context on a step counter,
//     keeping the check off the per-assignment hot path) and returns
//     the context's error with a nil instance.
package chase
