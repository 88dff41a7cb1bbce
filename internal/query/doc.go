// Package query implements conjunctive queries with equalities and
// inequalities over NR instances. Muse uses such queries (the Q_Ie of
// Sec. III-A and IV-A) to retrieve real tuples from the actual source
// instance that realize a constructed example's agree/disagree
// pattern; when no real match exists (or the search budget runs out
// first), the wizards fall back to synthetic examples.
//
// Evaluation is index-driven: hash indexes over top-level sets
// (instance.Index) come from an IndexStore, shared across a whole
// design session when the caller passes one (Options.Store), and a
// cost-based planner orders the atoms by estimated candidate-set size
// using the store's cardinality and distinct-value statistics
// (instance.CountDistinct). Each Eval compiles the
// plan into a slot-resolved kernel (kernel.go) whose backtracking
// search reads tuple slots by position and binds variables in an array
// indexed by variable id, so no name is looked up per candidate tuple.
// A caller that can settle a query without a search passes a Decider
// to FirstDecided, which consults it before the query is even built:
// Muse's wizards refute their probes on the example tableau and decide
// the rest on assignment tables (internal/core). The package keeps the
// query.eval span and the muse_query_* counters of every evaluation,
// settled or searched.
//
// Invariants:
//
//   - Results are deterministic and independent of whether indexes
//     were warm; the match order is the order of the plan Explain
//     shows. The naive reference (Query.EvalNaive) returns the same
//     match set.
//   - A settled query is built, planned, scanned and indexed by
//     nothing: FirstDecided reports it not found. Queries the Decider
//     does not settle run the same plan and kernel as without it.
//   - Work, not time, bounds a search: past searchBudget candidate
//     tuples Eval returns the matches so far and ErrBudget, so the same
//     query on the same instance gives the same matches and the same
//     error on any machine. A cancelled Options.Ctx surfaces as the
//     context's own error, so callers can tell designer abort from a
//     spent budget.
//   - An IndexStore is safe for concurrent use and never returns
//     partially built indexes. It builds each index, statistics block
//     and uniqueness verdict once, and renders no value keys: an index
//     bucket may hold tuples that only collide in hash, which the
//     kernel's SameValue checks on every index attribute reject, and
//     every count confirms hash hits by SameValue.
package query
