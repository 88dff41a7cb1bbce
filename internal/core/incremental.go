package core

import (
	"fmt"

	"muse/internal/chase"
	"muse/internal/mapping"
)

// GroupLess refines an already-designed grouping function by asking
// whether additional attributes should join it — splitting nested sets
// into smaller ones (Incremental Muse-G, Sec. III-C). Probing starts
// from the current arguments; attributes already implied by them are
// skipped.
func (w *GroupingWizard) GroupLess(m *mapping.Mapping, fn string, d GroupingDesigner) (*mapping.Mapping, error) {
	sk := m.SKFor(fn)
	if sk == nil {
		return nil, fmt.Errorf("core: mapping %s has no grouping function %s", m.Name, fn)
	}
	return w.refineSK(m, fn, append([]mapping.Expr{}, sk.SK.Args...), d)
}

// refineSK runs the probe loop with a non-empty starting confirmed
// set.
func (w *GroupingWizard) refineSK(m *mapping.Mapping, fn string, confirmed []mapping.Expr, d GroupingDesigner) (*mapping.Mapping, error) {
	poss := m.Poss()
	stats := SKStats{Mapping: m.Name, SK: fn, PossSize: len(poss)}
	imps := tableauImplications(m, w.SrcDeps)
	eqClass := newExprClasses(m.ForSat)
	tb := compileTableau(m, w.SrcDeps, 2)

	inConfirmed := make(map[string]bool, len(confirmed))
	for _, e := range confirmed {
		inConfirmed[e.String()] = true
	}
	decidedOut := make(map[mapping.Expr]bool)
	for _, probe := range poss {
		if err := w.context().Err(); err != nil {
			return nil, err
		}
		if inConfirmed[probe.String()] {
			continue
		}
		if coversPoss(confirmed, poss, imps) {
			break
		}
		if inClosure(confirmed, probe, imps) {
			continue
		}
		if eqClass.anyDecided(probe, decidedOut) {
			decidedOut[probe] = true
			continue
		}
		ans, skipped, err := w.askProbe(tb, fn, poss, confirmed, decidedOut, probe, nil, d, &stats)
		if err != nil {
			return nil, err
		}
		if skipped {
			continue
		}
		if ans == 1 {
			confirmed = append(confirmed, probe)
			inConfirmed[probe.String()] = true
		} else {
			decidedOut[probe] = true
		}
	}
	stats.Result = confirmed
	w.recordSK(stats)
	return m.WithSK(fn, confirmed), nil
}

// GroupMore refines an already-designed grouping function by asking,
// for each current argument, whether it can be dropped — merging
// nested sets into bigger ones (Incremental Muse-G, Sec. III-C).
func (w *GroupingWizard) GroupMore(m *mapping.Mapping, fn string, d GroupingDesigner) (*mapping.Mapping, error) {
	sk := m.SKFor(fn)
	if sk == nil {
		return nil, fmt.Errorf("core: mapping %s has no grouping function %s", m.Name, fn)
	}
	poss := m.Poss()
	stats := SKStats{Mapping: m.Name, SK: fn, PossSize: len(poss)}
	keep := append([]mapping.Expr{}, sk.SK.Args...)
	tb := compileTableau(m, w.SrcDeps, 2)

	for i := 0; i < len(keep); i++ {
		if err := w.context().Err(); err != nil {
			return nil, err
		}
		probe := keep[i]
		rest := append(append([]mapping.Expr{}, keep[:i]...), keep[i+1:]...)
		// Copies agree on the other kept arguments; the candidate
		// differs. Scenario 1 keeps the argument (two groups),
		// scenario 2 drops it (one group). The other attributes agree
		// where they can, as in a Muse-G probe.
		if !probeSetup(tb, poss, rest, nil, probe, nil) {
			// The remaining arguments force this one to agree: it is
			// redundant and can be dropped without asking.
			keep = append(keep[:i], keep[i+1:]...)
			i--
			continue
		}
		d1 := m.WithSK(fn, keep)
		d2 := m.WithSK(fn, rest)
		ie, real, err := w.obtainExample(tb, []mapping.Expr{probe}, &stats)
		if err != nil {
			return nil, err
		}
		s1, err := chase.ChaseCtx(w.context(), ie, w.Obs, d1)
		if err != nil {
			return nil, err
		}
		s2, err := chase.ChaseCtx(w.context(), ie, w.Obs, d2)
		if err != nil {
			return nil, err
		}
		q := &GroupingQuestion{
			Kind: QuestionGroupMore, Mapping: m, SK: fn, Probe: probe,
			Confirmed: rest, Source: ie, Real: real,
			Scenario1: s1, Scenario2: s2,
			Include1: append([]mapping.Expr{}, keep...), Include2: rest,
		}
		ans, err := d.ChooseScenario(q)
		if err != nil {
			return nil, err
		}
		stats.Questions++
		if ans == 2 {
			keep = append(keep[:i], keep[i+1:]...)
			i--
		}
	}
	stats.Result = keep
	w.recordSK(stats)
	return m.WithSK(fn, keep), nil
}
