// Package core implements the Muse wizards — the paper's contribution:
//
//   - Muse-G (Sec. III): designing the grouping function of every
//     nested target set from the designer's answers to a short
//     sequence of two-scenario questions over small examples, with the
//     key- and FD-based question reductions of Sec. III-B/III-C, the
//     incremental redesign ("group more" / "group less"), and the
//     instance-only mode.
//   - Muse-D (Sec. IV): disambiguating a mapping with or-predicates by
//     showing one compact target instance with per-element choice
//     lists, and translating the designer's picks back into an
//     unambiguous mapping.
//
// Both wizards draw examples from a real source instance when it can
// differentiate the alternatives, and construct synthetic canonical
// examples otherwise. They read one Env: the source constraints, the
// real instance, the shared index store, the ranker, the observability
// bundle and the bounding context.
//
// Muse-G has one question path and one probe loop. GroupingWizard.ask
// builds, checks and poses the attribute probe, the multi-key question
// and the group-more question; probeAll runs the probe sequence of
// DesignSK and GroupLess. DesignSK, GroupLess and GroupMore compile,
// once per grouping function, the two-copy tableau the examples come
// from and the mapping's chase program (chase.Compile); ask runs that
// program on each example with the question's two argument lists, so
// no question copies or compiles a mapping.
//
// Two calling conventions host the dialogs. Session.Run is the
// callback form: it drives Muse-D then Muse-G, invoking the designer
// interfaces inline. Stepper inverts that into a resumable
// question/answer state machine for servers (internal/server exposes
// it over HTTP).
//
// Invariants:
//
//   - Dialogs are deterministic: the same scenario and answer sequence
//     always produce the same questions and the same refined mappings,
//     whether driven through Session.Run or a Stepper, on any machine
//     and under any load (no clock decides an example).
//   - Every example shown satisfies the source constraints (SrcDeps);
//     the wizards verify this before posing a question.
//   - Wizard work is bounded by the wizard's Ctx: once it is
//     cancelled, retrieval and chases abort promptly and the dialog
//     unwinds with the context's error (cancellation is session-fatal
//     by design — dialogs are short and cheap to replay).
package core
