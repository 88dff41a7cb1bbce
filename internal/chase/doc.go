// Package chase implements the chase of a source instance with a set
// of schema mappings (Fagin et al., TCS 2005; Popa et al., VLDB 2002),
// producing the canonical universal solution. Labeled nulls and SetIDs
// are minted as Skolem terms, so the chase is deterministic: chasing
// the same instance twice yields the identical target instance, and
// the union over mappings deduplicates tuples exactly as in Fig. 2 of
// the paper.
//
// Compile and run are split. Compile turns one mapping into a Program
// for a source catalog: the for-clause evaluator (generators, joins,
// probe slots, layouts) and the target plan (variable plans, null
// symbols, inserts, consistency checks, Skolem and grouping argument
// refs). A run chases one instance of that catalog; RunWithSK runs
// with other arguments for one grouping function, exactly as chasing
// m.WithSK(fn, args) would, so Muse-G compiles one program per
// grouping function and runs it for both scenarios of every question.
// ChaseCtx, and so Chase, ChaseObs and ChaseSerial, compiles each
// mapping for the source's catalog and runs them in order into one
// output: every chase runs through programs.
//
// Invariants:
//
//   - Determinism: Chase, ChaseSerial, ChaseObs, ChaseCtx and program
//     runs produce byte-identical instances for the same input
//     (testdata/scenario_chase.golden pins them).
//   - Compiled once per program: the evaluator binds generators by
//     position, and every join, index key, nested parent field and
//     emitted source expression is resolved to a (generator position,
//     slot) pair before enumeration; no label is looked up per
//     candidate or per assignment.
//   - One run at a time: a Program's runs share its scratch, so a
//     program serves one run at a time (Muse-G owns its programs on the
//     wizard's goroutine; ChaseCtx compiles its own). Everything a run
//     derives from its instance (each generator's top-level occurrence
//     and probe index, the assignment, the scratch tuples' contents,
//     the counters) is per-run state, dropped when the run returns, so
//     a program pins neither its last source nor its last output.
//   - Enumeration order is set order: candidates come from the whole
//     top-level set, one bucket of the generator's hash index (built on
//     first probe, its collisions dropped by the join checks), or the
//     nested occurrence the parent references, each in insertion order.
//   - One argument hash per assignment: its nulls and grouping terms over
//     all source values are minted from one instance.TermArgs, hashed
//     once and cloned at most once, and each SetID with its occurrence in
//     one lookup (Instance.InternSet). Re-emits allocate nothing.
//   - Cancellation: ChaseCtx aborts promptly once its context is
//     cancelled (the evaluator polls the context on a step counter,
//     keeping the check off the per-assignment hot path) and returns
//     the context's error with a nil instance.
package chase
