package core

import (
	"context"
	"slices"

	"muse/internal/query"
)

// Snapshot returns the ordered accepted answers — everything needed
// (with the scenario) to rebuild the dialog on any replica via
// ResumeStepper. The slice and its choice lists are fresh copies.
func (st *Stepper) Snapshot() []Answer {
	out := make([]Answer, len(st.accepted))
	for i, a := range st.accepted {
		out[i] = cloneAnswer(a)
	}
	return out
}

// ProbeRetrieval is a copy of a probe retrieval as the wizard ran it:
// its tableau in the probe's partition, its query, and its verdicts on
// the wizard's index store and assignment tables.
type ProbeRetrieval struct {
	d probeDecision
	// Query is the probe query the kernel searches.
	Query *query.Query
}

// LastRetrieval copies the probe retrieval that obtained the example of
// the question the wizard posed last, or returns nil when its copies
// differ on more than one attribute.
func (w *GroupingWizard) LastRetrieval() *ProbeRetrieval {
	d := w.decision
	if d.probe < 0 {
		return nil
	}
	// The copy keeps the probe's partition and pairs; scratch the
	// verdicts write is its own.
	tb := *d.tb
	tb.parent, tb.trail = slices.Clone(tb.parent), slices.Clone(tb.trail)
	tb.neq = slices.Clone(d.neq)
	tb.merged = make([]bool, len(tb.pairs))
	tb.keys, tb.filter, tb.least, tb.shared, tb.facts, tb.factAttrs = nil, nil, nil, nil, nil, nil
	d.tb, d.neq = &tb, tb.neq
	return &ProbeRetrieval{d: d, Query: tb.realQuery(tb.neq)}
}

// Refute refutes the retrieval on its tableau from the unique
// attributes of the wizard's index store, as obtainExample does first.
func (p *ProbeRetrieval) Refute() bool { return p.d.Refuted(p.d.env.Store) }

// Decide decides the retrieval on the wizard's assignment table of its
// mapping, as obtainExample does when refutation settles nothing:
// whether it has the decided shape and, when it has, whether the table
// proves its query empty.
func (p *ProbeRetrieval) Decide() (shaped, empty bool, err error) {
	return p.d.decide(context.Background())
}

// Tables returns how many assignment tables the wizard holds.
func (w *GroupingWizard) Tables() int { return len(w.tables.byName) }
