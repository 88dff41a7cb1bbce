package core

import (
	"fmt"
	"slices"

	"muse/internal/mapping"
	"muse/internal/obs"
)

// GroupLess refines an already-designed grouping function by asking
// whether additional attributes should join it — splitting nested sets
// into smaller ones (Incremental Muse-G, Sec. III-C). It runs the
// Muse-G probe loop from the current arguments over the rest of poss,
// so attributes implied by them are skipped, and InstanceOnly applies.
func (w *GroupingWizard) GroupLess(m *mapping.Mapping, fn string, d GroupingDesigner) (*mapping.Mapping, error) {
	sk := m.SKFor(fn)
	if sk == nil {
		return nil, fmt.Errorf("core: mapping %s has no grouping function %s", m.Name, fn)
	}
	poss := m.Poss()
	stats := SKStats{Mapping: m.Name, SK: fn, PossSize: len(poss)}
	defer endSKSpan(w.Obs.Start(obs.SpanMuseGSK), &stats)
	var candidates []mapping.Expr
	for _, e := range poss {
		if !slices.Contains(sk.SK.Args, e) {
			candidates = append(candidates, e)
		}
	}
	tb, err := w.questionTableau(m)
	if err != nil {
		return nil, err
	}
	confirmed, err := w.probeAll(tb, fn, poss, candidates, slices.Clone(sk.SK.Args), nil, d, &stats)
	if err != nil {
		return nil, err
	}
	return w.finish(m, fn, confirmed, stats), nil
}

// GroupMore refines an already-designed grouping function by asking,
// for each current argument, whether it can be dropped — merging
// nested sets into bigger ones (Incremental Muse-G, Sec. III-C). An
// argument the others force to agree is dropped without a question.
func (w *GroupingWizard) GroupMore(m *mapping.Mapping, fn string, d GroupingDesigner) (*mapping.Mapping, error) {
	sk := m.SKFor(fn)
	if sk == nil {
		return nil, fmt.Errorf("core: mapping %s has no grouping function %s", m.Name, fn)
	}
	poss := m.Poss()
	stats := SKStats{Mapping: m.Name, SK: fn, PossSize: len(poss)}
	defer endSKSpan(w.Obs.Start(obs.SpanMuseGSK), &stats)
	keep := slices.Clone(sk.SK.Args)
	tb, err := w.questionTableau(m)
	if err != nil {
		return nil, err
	}

	for i := 0; i < len(keep); i++ {
		if err := w.context().Err(); err != nil {
			return nil, err
		}
		probe := keep[i]
		rest := slices.Delete(slices.Clone(keep), i, i+1)
		// Copies agree on the other kept arguments; the candidate
		// differs. Scenario 1 keeps the argument (two groups),
		// scenario 2 drops it (one group). The other attributes agree
		// where they can, as in a Muse-G probe. An argument the others
		// force to agree is redundant and is dropped without asking.
		if probeSetup(tb, poss, rest, nil, probe, nil) {
			q := &GroupingQuestion{
				Kind: QuestionGroupMore, Mapping: m, SK: fn, Probe: probe,
				Confirmed: rest, Include1: keep, Include2: rest,
			}
			ans, err := w.ask(tb, q, []mapping.Expr{probe}, nil, d, &stats)
			if err != nil {
				return nil, err
			}
			if ans == 1 {
				continue
			}
		}
		keep = rest
		i--
	}
	return w.finish(m, fn, keep, stats), nil
}
