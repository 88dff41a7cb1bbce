package core

import (
	"fmt"

	"muse/internal/chase"
	"muse/internal/deps"
	"muse/internal/instance"
	"muse/internal/mapping"
	"muse/internal/obs"
)

// DisambiguationWizard is Muse-D: it resolves the or-predicates of an
// ambiguous mapping by asking the designer to fill in choices on one
// compact partial target instance (Sec. IV).
type DisambiguationWizard struct {
	Env
	// Stats accumulates per-mapping effort.
	Stats DStats
}

// DStats records Muse-D effort, feeding the Sec. VI Muse-D table.
type DStats struct {
	Mappings []DMappingStats
}

// DMappingStats is the record for one ambiguous mapping.
type DMappingStats struct {
	Mapping string
	// Alternatives is the number of interpretations the mapping
	// encodes (the product of or-group sizes).
	Alternatives int
	// Questions is 1 per ambiguous mapping (the paper's headline
	// property: one example instead of one target per interpretation).
	Questions int
	// SourceTuples is the size of the example source instance.
	SourceTuples int
	// ChoiceValues is the number of ambiguous elements shown.
	ChoiceValues int
	// Real reports whether the example came from the actual instance.
	Real bool
}

// TotalAlternatives sums the interpretations encoded across mappings.
func (s *DStats) TotalAlternatives() int {
	n := 0
	for _, m := range s.Mappings {
		n += m.Alternatives
	}
	return n
}

// TotalQuestions sums the questions posed.
func (s *DStats) TotalQuestions() int {
	n := 0
	for _, m := range s.Mappings {
		n += m.Questions
	}
	return n
}

// NewDisambiguationWizard constructs a wizard over the given
// constraints and real instance (both optional).
func NewDisambiguationWizard(srcDeps *deps.Set, real *instance.Instance) *DisambiguationWizard {
	return &DisambiguationWizard{Env: Env{SrcDeps: srcDeps, Real: real}}
}

// Disambiguate poses the single Muse-D question for the ambiguous
// mapping m and translates the designer's selections into unambiguous
// mappings (one, or several when the designer multi-selects).
func (w *DisambiguationWizard) Disambiguate(m *mapping.Mapping, d DisambiguationDesigner) ([]*mapping.Mapping, error) {
	if !m.Ambiguous() {
		return []*mapping.Mapping{m.Clone()}, nil
	}
	if _, err := m.Analyze(); err != nil {
		return nil, err
	}
	// The span parents into the current request's trace; the example
	// retrieval and the partial chase below run under its context.
	sp, sctx := w.Obs.StartCtx(w.context(), obs.SpanMuseD)
	defer sp.End()

	// One copy of the canonical tableau; the or-group alternatives must
	// be pairwise distinguishable, so they are left in distinct classes
	// (the canonical tableau only merges what the satisfy clause
	// forces) and the real-example query adds the inequalities
	// en1 ≠ en2 of Sec. IV-A.
	tb := compileTableau(m, w.SrcDeps, 1)
	q := tb.realQuery(nil)
	for _, g := range m.OrGroups {
		for i := 0; i < len(g.Alts); i++ {
			for j := i + 1; j < len(g.Alts); j++ {
				a, b := tb.slot[g.Alts[i]], tb.slot[g.Alts[j]]
				if tb.find(a) == tb.find(b) {
					continue // equivalent alternatives: indistinguishable by data
				}
				q.Neq = append(q.Neq, [2]string{tb.classID(a), tb.classID(b)})
			}
		}
	}
	// Obtain the example: real when the pattern (with inequalities)
	// exists, synthetic otherwise.
	var ie *instance.Instance
	real := false
	var valueOf func(e mapping.Expr) instance.Value
	if w.Real != nil {
		opt := w.retrieval()
		opt.Ctx = sctx
		if match, ok, _ := q.First(w.Real, opt); ok {
			ie = tb.fromMatch(match, w.Real)
			real = true
			valueOf = func(e mapping.Expr) instance.Value {
				return match.Tuples[tb.atomIndex(1, e.Var)].Get(e.Attr)
			}
		}
	}
	if ie == nil {
		ie = tb.synthetic()
		valueOf = func(e mapping.Expr) instance.Value {
			return tb.classValue[tb.slot[e]]
		}
	}
	if w.SrcDeps != nil {
		if v := w.SrcDeps.Check(ie); len(v) > 0 {
			return nil, fmt.Errorf("core: Muse-D constructed an invalid example for %s: %v", m.Name, v[0])
		}
	}

	// The partial target: chase with the unambiguous part (or-groups
	// dropped), leaving nulls in the ambiguous slots.
	common := m.Clone()
	common.OrGroups = nil
	target, err := chase.ChaseCtx(sctx, ie, w.Obs, common)
	if err != nil {
		return nil, err
	}

	choices := make([]Choice, len(m.OrGroups))
	for i, g := range m.OrGroups {
		ch := Choice{Element: g.Target}
		for _, alt := range g.Alts {
			ch.Values = append(ch.Values, valueOf(alt))
		}
		choices[i] = ch
	}

	question := &ChoiceQuestion{
		Mapping: m, Source: ie, Real: real, Target: target, Choices: choices,
	}
	if w.Ranker != nil {
		question.Rankings = w.ranker().ScoreChoices(m)
	}
	// End as the question is posed (see GroupingWizard.ask): the selection
	// arrives with the next request, and the span must land in the
	// trace of the request that built the example and partial chase.
	sp.Attr("mapping", m.Name).Attr("alternatives", m.AlternativeCount()).Attr("real", real).End()
	selected, err := d.SelectValues(question)
	if err != nil {
		return nil, err
	}
	out, err := m.MultiInterpretation(selected)
	if err != nil {
		return nil, err
	}

	w.Stats.Mappings = append(w.Stats.Mappings, DMappingStats{
		Mapping:      m.Name,
		Alternatives: m.AlternativeCount(),
		Questions:    1,
		SourceTuples: ie.TupleCount(),
		ChoiceValues: len(m.OrGroups),
		Real:         real,
	})
	if w.Obs != nil {
		r := w.Obs.Reg
		r.Counter(obs.MMuseDQuestions).Inc()
		r.Counter(obs.MMuseDAlternatives).Add(int64(m.AlternativeCount()))
		if real {
			r.Counter(obs.MMuseDRealExamples).Inc()
		} else {
			r.Counter(obs.MMuseDSyntheticExamples).Inc()
		}
		r.Counter(obs.MMuseDSourceTuples).Add(int64(ie.TupleCount()))
	}
	return out, nil
}

// DisambiguateAll runs Muse-D over every ambiguous mapping of a set,
// returning the fully unambiguous mapping set (Sec. V).
func (w *DisambiguationWizard) DisambiguateAll(set *mapping.Set, d DisambiguationDesigner) (*mapping.Set, error) {
	var out []*mapping.Mapping
	for _, m := range set.Mappings {
		if err := w.context().Err(); err != nil {
			return nil, err
		}
		ms, err := w.Disambiguate(m, d)
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
	}
	return mapping.NewSet(set.Src, set.Tgt, out...)
}
