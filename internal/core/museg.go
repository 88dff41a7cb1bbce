package core

import (
	"context"
	"fmt"
	"time"

	"muse/internal/chase"
	"muse/internal/deps"
	"muse/internal/homo"
	"muse/internal/instance"
	"muse/internal/mapping"
	"muse/internal/obs"
	"muse/internal/query"
	"muse/internal/rank"
)

// GroupingWizard is Muse-G: it designs the grouping functions of a
// mapping from the designer's answers to two-scenario questions.
type GroupingWizard struct {
	Env
	// InstanceOnly, when set, designs grouping only for the Real
	// instance: attributes whose inclusion is inconsequential on Real
	// are skipped (Sec. III-C "Designing grouping functions only for
	// the instance I").
	InstanceOnly bool
	// Deprecated: Prefetch is ignored; the think-time prefetch of Sec.
	// VI was removed (DESIGN.md §6).
	Prefetch bool
	// Stats accumulates per-grouping-function effort.
	Stats Stats
}

// finish records one designed grouping function, mirrors its
// aggregates onto the registry, and returns m with the designed
// arguments installed.
func (w *GroupingWizard) finish(m *mapping.Mapping, fn string, args []mapping.Expr, stats SKStats) *mapping.Mapping {
	stats.Result = args
	w.Stats.SKs = append(w.Stats.SKs, stats)
	if w.Obs != nil {
		r := w.Obs.Reg
		r.Counter(obs.MMuseGSKs).Inc()
		r.Counter(obs.MMuseGQuestions).Add(int64(stats.Questions))
		r.Counter(obs.MMuseGRealExamples).Add(int64(stats.RealExamples))
		r.Counter(obs.MMuseGSyntheticExamples).Add(int64(stats.SyntheticExamples))
		r.Counter(obs.MMuseGExampleTuples).Add(int64(stats.ExampleTuples))
	}
	return m.WithSK(fn, args)
}

// NewGroupingWizard constructs a wizard with the given constraints and
// real instance (both optional).
func NewGroupingWizard(srcDeps *deps.Set, real *instance.Instance) *GroupingWizard {
	return &GroupingWizard{Env: Env{SrcDeps: srcDeps, Real: real}}
}

// DesignMapping designs every grouping function of m, in breadth-first
// order of the target sets (Sec. III Step 1), and returns the refined
// mapping.
func (w *GroupingWizard) DesignMapping(m *mapping.Mapping, d GroupingDesigner) (*mapping.Mapping, error) {
	cur := m
	for _, fn := range w.skOrder(m) {
		var err error
		cur, err = w.DesignSK(cur, fn, d)
		if err != nil {
			return nil, err
		}
	}
	return cur, nil
}

// skOrder returns the mapping's grouping-function names ordered by the
// breadth-first position of their target sets.
func (w *GroupingWizard) skOrder(m *mapping.Mapping) []string {
	rank := func(fn string) int {
		for i, st := range m.Tgt.Sets {
			if st.SKName() == fn {
				return i
			}
		}
		return len(m.Tgt.Sets)
	}
	var fns []string
	for _, a := range m.SKs {
		fns = append(fns, a.SK.Fn)
	}
	// Insertion sort by rank; SK lists are tiny.
	for i := 1; i < len(fns); i++ {
		for j := i; j > 0 && rank(fns[j]) < rank(fns[j-1]); j-- {
			fns[j], fns[j-1] = fns[j-1], fns[j]
		}
	}
	return fns
}

// DesignSK designs the grouping function named fn of mapping m and
// returns m with the designed arguments installed.
func (w *GroupingWizard) DesignSK(m *mapping.Mapping, fn string, d GroupingDesigner) (*mapping.Mapping, error) {
	if m.SKFor(fn) == nil {
		return nil, fmt.Errorf("core: mapping %s has no grouping function %s", m.Name, fn)
	}
	poss := m.Poss()
	stats := SKStats{Mapping: m.Name, SK: fn, PossSize: len(poss)}
	sp := w.Obs.Start(obs.SpanMuseGSK)
	defer func() {
		sp.Attr("mapping", m.Name).Attr("sk", fn).Attr("questions", stats.Questions).End()
	}()
	keyAttrs, rest := keyCovered(m, w.SrcDeps)
	tb, err := w.questionTableau(m)
	if err != nil {
		return nil, err
	}
	candidates := append(append([]mapping.Expr{}, keyAttrs...), rest...)
	var alwaysDiffer []mapping.Expr

	if multiKeyed(m, w.SrcDeps) && len(keyAttrs) > 0 {
		// Sec. III-B, multiple keys: one question decides between
		// grouping by key (same effect as any superset including any
		// key) and grouping by a subset of the non-key attributes. Its
		// copies agree on every non-key attribute and differ on every
		// key-covered one.
		if !tb.probe(nil, rest, keyAttrs) {
			return nil, fmt.Errorf("core: cannot construct the multi-key question for %s: key attributes collapse", fn)
		}
		q := &GroupingQuestion{Kind: QuestionKeyGrouping, Mapping: m, SK: fn, Include1: keyAttrs}
		ans, err := w.ask(tb, q, keyAttrs, func(r *rank.Scorer) rank.Ranking {
			return r.ScoreKeyGrouping(m, keyAttrs, rest)
		}, d, &stats)
		if err != nil {
			return nil, err
		}
		if ans == 1 {
			return w.finish(m, fn, keyAttrs, stats), nil
		}
		// Restrict to non-key attributes; key attributes stay distinct
		// across copies so every constructed instance satisfies all
		// keys.
		candidates, alwaysDiffer = rest, keyAttrs
	}
	confirmed, err := w.probeAll(tb, fn, poss, candidates, nil, alwaysDiffer, d, &stats)
	if err != nil {
		return nil, err
	}
	return w.finish(m, fn, confirmed, stats), nil
}

// questionTableau compiles, once per grouping function, what each of
// its questions runs on: the two-copy tableau its examples come from,
// and m's chase compiled for m.Src, which its two scenarios run.
func (w *GroupingWizard) questionTableau(m *mapping.Mapping) (*tableau, error) {
	prog, err := chase.Compile(m, m.Src)
	if err != nil {
		return nil, err
	}
	tb := compileTableau(m, w.SrcDeps, 2)
	tb.scenarios = prog
	return tb, nil
}

// probeAll runs the probe sequence of Sec. III-A over candidates, in
// order, starting from the confirmed attributes, and returns them
// grown by every probe the designer accepts. The alwaysDiffer
// attributes differ across every probe's copies.
func (w *GroupingWizard) probeAll(tb *tableau, fn string, poss, candidates, confirmed, alwaysDiffer []mapping.Expr, d GroupingDesigner, stats *SKStats) ([]mapping.Expr, error) {
	m := tb.m
	imps := tableauImplications(m, w.SrcDeps)
	// Attributes joined by satisfy equalities always carry the same
	// value, so one probe decides the whole equality class (the c.cid
	// probe of Fig. 3(a) also decides p.cid).
	eqClass := mapping.NewClasses(m.ForSat)
	decidedOut := make(map[mapping.Expr]bool)
	// The closure of the confirmed attributes changes only when a probe
	// is accepted.
	closure := closureOf(confirmed, imps)
	for _, probe := range candidates {
		if err := w.context().Err(); err != nil {
			return nil, err
		}
		if coversPoss(closure, poss) {
			// Thm 3.2 / Cor 3.3: everything left is inconsequential.
			break
		}
		if closure[probe.String()] {
			// FD generalization of Thm 3.2: probe's membership cannot
			// change the grouping semantics; skip the question.
			continue
		}
		if anyDecided(eqClass, probe, decidedOut) {
			// An equality-correlate was already rejected; grouping by
			// this attribute would have the identical (rejected) effect.
			decidedOut[probe] = true
			continue
		}
		if w.InstanceOnly && w.Real != nil {
			implied, err := w.dataImplied(m, confirmed, probe)
			if err != nil {
				return nil, err
			}
			if implied {
				continue
			}
		}
		if !probeSetup(tb, poss, confirmed, decidedOut, probe, alwaysDiffer) {
			// The constraints force the probed attribute to agree
			// whenever the confirmed ones do: its membership is
			// inconsequential.
			continue
		}
		with := append(append([]mapping.Expr{}, confirmed...), probe)
		q := &GroupingQuestion{
			Kind: QuestionProbe, Mapping: m, SK: fn, Probe: probe,
			Confirmed: confirmed, Include1: with, Include2: confirmed,
		}
		ans, err := w.ask(tb, q, []mapping.Expr{probe}, func(r *rank.Scorer) rank.Ranking {
			return r.ScoreProbe(m, probe, q.Confirmed)
		}, d, stats)
		if err != nil {
			return nil, err
		}
		switch ans {
		case 1:
			confirmed = append(confirmed, probe)
			closure = closureOf(confirmed, imps)
		case 2:
			decidedOut[probe] = true
		}
	}
	return confirmed, nil
}

// ask poses one Muse-G question whose kind, mapping, grouping function,
// probe and argument lists are set: it obtains an example on the
// tableau tb already set up for the question, whose copies differ on
// differ, and runs tb's compiled chase on it with q.Include1 and
// q.Include2 as the grouping function's arguments. When the two
// scenarios coincide on a real example it falls back to the synthetic
// one; when they coincide there too it poses nothing and returns 0.
// Otherwise it checks the example against the source constraints,
// attaches score's ranking when a ranker is attached, and returns the
// designer's answer, 1 or 2.
func (w *GroupingWizard) ask(tb *tableau, q *GroupingQuestion, differ []mapping.Expr, score func(*rank.Scorer) rank.Ranking, d GroupingDesigner, stats *SKStats) (int, error) {
	ie, real := w.obtainExample(tb, differ, stats)
	// The probe span parents into the CURRENT request's trace —
	// w.context() is re-pointed by Stepper.install per request, so the
	// two scenario chases below land in the trace of the request whose
	// answer triggered this question.
	sp, pctx := w.Obs.StartCtx(w.context(), obs.SpanMuseGProbe)
	defer sp.End()
	s1, s2, err := w.scenarios(pctx, tb.scenarios, q, ie)
	if err != nil {
		return 0, err
	}
	if homo.Isomorphic(s1, s2) {
		if real {
			// The real example is too coincidental to differentiate the
			// scenarios; fall back to the synthetic instance.
			ie = tb.synthetic()
			real = false
			stats.RealExamples--
			stats.SyntheticExamples++
			if s1, s2, err = w.scenarios(pctx, tb.scenarios, q, ie); err != nil {
				return 0, err
			}
		}
		if homo.Isomorphic(s1, s2) {
			return 0, nil
		}
	}
	if w.SrcDeps != nil {
		if v := w.SrcDeps.Check(ie); len(v) > 0 {
			return 0, fmt.Errorf("core: question on %s of %s constructed an invalid example: %v", q.SK, q.Mapping.Name, v[0])
		}
	}
	q.Source, q.Real, q.Scenario1, q.Scenario2 = ie, real, s1, s2
	if score != nil && w.Ranker != nil {
		rk := score(w.ranker())
		q.Ranking = &rk
	}
	// End the span as the question is posed, not when it is answered:
	// the designer's think time crosses requests (the answer arrives
	// with the next HTTP call), and the flight recorder needs the
	// question's compute spans completed within the request that did
	// the work. The deferred End above is then a no-op.
	sp.Attr("probe", q.Probe.String()).Attr("real", real).End()
	ans, err := d.ChooseScenario(q)
	if err != nil {
		return 0, err
	}
	if ans != 1 && ans != 2 {
		return 0, fmt.Errorf("core: designer answered %d, want 1 or 2", ans)
	}
	stats.Questions++
	return ans, nil
}

// scenarios runs p, the question's mapping compiled for its examples,
// on example ie with q.Include1 and then q.Include2 as the arguments of
// the grouping function q.SK.
func (w *GroupingWizard) scenarios(ctx context.Context, p *chase.Program, q *GroupingQuestion, ie *instance.Instance) (s1, s2 *instance.Instance, err error) {
	if s1, err = p.RunWithSK(ctx, ie, w.Obs, q.SK, q.Include1); err != nil {
		return nil, nil, err
	}
	if s2, err = p.RunWithSK(ctx, ie, w.Obs, q.SK, q.Include2); err != nil {
		return nil, nil, err
	}
	return s1, s2, nil
}

// probeSetup computes the agreement pattern of a probe (Sec. III-A) —
// confirmed and undecided attributes agree across copies, the probed
// attribute (and the multi-key branch's key attributes) differ,
// decided-out attributes are unconstrained — and builds it on the
// compiled two-copy tableau. It reports false when the probe is
// unconstructible (inconsequential).
func probeSetup(tb *tableau, poss, confirmed []mapping.Expr, decidedOut map[mapping.Expr]bool, probe mapping.Expr, alwaysDiffer []mapping.Expr) bool {
	excluded := make([]bool, tb.width)
	for k := range decidedOut {
		excluded[tb.slot[k]] = true
	}
	excluded[tb.slot[probe]] = true
	for _, e := range confirmed {
		excluded[tb.slot[e]] = true
	}
	for _, e := range alwaysDiffer {
		excluded[tb.slot[e]] = true
	}
	var undecided []mapping.Expr
	for _, e := range poss {
		if !excluded[tb.slot[e]] {
			undecided = append(undecided, e)
		}
	}
	return tb.probe(confirmed, undecided, append([]mapping.Expr{probe}, alwaysDiffer...))
}

// obtainExample retrieves a real example via the probe query, falling
// back to the synthetic instance when the search finds none within
// its budget.
func (w *GroupingWizard) obtainExample(tb *tableau, differ []mapping.Expr, stats *SKStats) (*instance.Instance, bool) {
	start := time.Now()
	defer func() { stats.ExampleTime += time.Since(start) }()
	if w.Real != nil {
		q := tb.realQuery(differ)
		match, ok, _ := q.First(w.Real, w.retrieval())
		if ok {
			stats.RealExamples++
			ie := tb.fromMatch(match, w.Real)
			stats.ExampleTuples += ie.TupleCount()
			return ie, true
		}
	}
	stats.SyntheticExamples++
	ie := tb.synthetic()
	stats.ExampleTuples += ie.TupleCount()
	return ie, false
}

// dataImplied reports whether, on the real instance, the probed
// attribute is constant within every group of assignments that agree
// on the confirmed attributes — in which case including it cannot
// change the grouping of any tuple of this instance. The assignments
// are enumerated through the shared index store (the mapping's
// canonical tableau as a query); an enumeration that exhausts the
// search budget conservatively keeps the question.
func (w *GroupingWizard) dataImplied(m *mapping.Mapping, confirmed []mapping.Expr, probe mapping.Expr) (bool, error) {
	tb := compileTableau(m, nil, 1)
	q := tb.realQuery(nil)
	matches, err := q.Eval(w.Real, w.retrieval())
	if err != nil {
		if err == query.ErrBudget {
			return false, nil
		}
		return false, err
	}
	// Each group of the confirmed values maps to its probed value (nil
	// when unset).
	var groups instance.VecMap[instance.Value]
	var gkey []instance.Value
	for _, match := range matches {
		gkey = gkey[:0]
		for _, e := range confirmed {
			gkey = append(gkey, match.Tuples[tb.atomIndex(1, e.Var)].Get(e.Attr))
		}
		pv := match.Tuples[tb.atomIndex(1, probe.Var)].Get(probe.Attr)
		if prev, ok := groups.Get(gkey); ok {
			if !instance.SameValue(prev, pv) {
				return false, nil
			}
			continue
		}
		groups.Put(gkey, pv)
	}
	return true, nil
}

// coversPoss reports whether the closure of the confirmed attributes
// contains all of poss (Thm 3.2: the rest is inconsequential).
func coversPoss(closure map[string]bool, poss []mapping.Expr) bool {
	if closure == nil {
		return false
	}
	for _, e := range poss {
		if !closure[e.String()] {
			return false
		}
	}
	return true
}

// closureOf returns the closure of es under the lifted implications, or
// nil for no attributes: nothing is implied by nothing.
func closureOf(es []mapping.Expr, imps []deps.Implication) map[string]bool {
	if len(es) == 0 {
		return nil
	}
	start := make([]string, len(es))
	for i, e := range es {
		start[i] = e.String()
	}
	return deps.CloseOver(imps, start)
}

// anyDecided reports whether some expression in probe's equality class
// was already decided out.
func anyDecided(eq *mapping.Classes, probe mapping.Expr, decidedOut map[mapping.Expr]bool) bool {
	root := eq.Find(probe)
	for k := range decidedOut {
		if eq.Find(k) == root {
			return true
		}
	}
	return false
}
