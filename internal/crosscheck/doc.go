// Package crosscheck is Muse's differential-testing and
// fault-injection harness: every optimized path is pitted against an
// independent reference implementation, and every serving path against
// its in-process equivalent, over deterministic seeded inputs
// (DESIGN.md §10).
//
// Six oracle families:
//
//   - chase (CheckChase): Chase vs NaiveChase, a from-scratch no-index
//     nested-loop reference evaluator, compared up to instance
//     isomorphism via internal/homo; and one compiled chase.Program per
//     mapping, run as it stands and regrouped at random, vs ChaseCtx of
//     the regrouped mapping, identical in insertion order.
//   - query (CheckQuery): the cost-based planner (full, Limit, First,
//     Neq pushdown) vs the naive scan evaluator on generated
//     conjunctive probes.
//   - wizard (CheckWizard): Stepper dialogs vs Session.Run
//     byte-identity under seeded valid and invalid answer sequences.
//   - resume (CheckResume): a dialog rebuilt by replay, in process and
//     through a reopened WAL store, vs the uninterrupted dialog.
//   - server (CheckServer): wire sessions vs in-process sessions plus
//     injected faults — malformed bodies, invalid answers, cancelled
//     requests, session eviction, concurrent hammering.
//   - auto (CheckAuto): ranked and unattended runs are deterministic
//     and the rankings advisory — byte-identical questions with and
//     without a ranker.
//
// Inputs come from the builtin scenarios (Fig. 1, Fig. 4, the four
// Sec. VI evaluation scenarios) plus two seeded generators: a
// deterministic instance mutator (drops, injections, unset slots,
// adversarial constants) and a random-scenario generator that drives
// the Clio-style mapping generator over random schema pairs. Nothing
// reads the wall clock: the same Config.Seed always replays the same
// inputs, so any Failure is reproducible from its reported seed.
//
// Divergences are minimized before they are reported: the harness
// greedily drops source tuples while the disagreement persists and
// embeds the shrunken instance in Failure.Repro.
//
// cmd/musecheck is the CLI driver (`make crosscheck` in CI); the
// permanent regression surface lives in this package's tests plus the
// promoted differential tests under internal/chase and internal/query.
package crosscheck
