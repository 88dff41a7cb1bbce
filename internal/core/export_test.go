package core

import (
	"context"
	"slices"
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
// its tableau in the probe's partition, and its verdicts on the
// wizard's index store and assignment tables.
type ProbeRetrieval struct {
	r probeRetrieval
	// Differ is the number of slot pairs the copies must differ on.
	Differ int
}

// LastRetrieval copies the probe retrieval that obtained the example of
// the question the wizard posed last, or returns nil when its copies
// differ on more than one attribute.
func (w *GroupingWizard) LastRetrieval() *ProbeRetrieval {
	r := w.decision
	if r.probe < 0 {
		return nil
	}
	// The copy keeps the probe's partition and pairs; scratch the
	// verdicts write is its own.
	tb := *r.tb
	tb.parent, tb.trail = slices.Clone(tb.parent), slices.Clone(tb.trail)
	tb.neq = slices.Clone(r.neq)
	tb.merged = make([]bool, len(tb.pairs))
	tb.keys, tb.filter, tb.least, tb.shared, tb.facts, tb.factAttrs = nil, nil, nil, nil, nil, nil
	r.tb, r.neq = &tb, tb.neq
	return &ProbeRetrieval{r: r, Differ: len(r.neq) / 2}
}

// Refute refutes the retrieval on its tableau from the unique
// attributes of the wizard's index store, as obtainExample does first.
func (p *ProbeRetrieval) Refute() bool { return p.r.refute() }

// Decide scans the wizard's assignment table of the retrieval's mapping
// for its witness, as obtainExample does when refutation settles
// nothing: whether the probe has the decided shape and, when it has,
// whether the table holds no witness.
func (p *ProbeRetrieval) Decide() (shaped, empty bool, err error) {
	found, _, err := p.r.scan(context.Background())
	return p.r.shape == nil, !found, err
}

// Tables returns how many assignment tables the wizard holds.
func (w *GroupingWizard) Tables() int { return len(w.tables.byName) }
