package core

import (
	"context"
	"fmt"
	"time"

	"muse/internal/chase"
	"muse/internal/deps"
	"muse/internal/instance"
	"muse/internal/mapping"
	"muse/internal/obs"
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

	// decision is the last probe's retrieval: refuted on the tableau, or
	// scanned on its mapping's assignment table (obtainExample).
	decision probeRetrieval
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
	defer endSKSpan(w.Obs.Start(obs.SpanMuseGSK), &stats)
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

// endSKSpan ends the museg.design_sk span that DesignSK, GroupLess and
// GroupMore each open for one grouping function's design, with the
// questions the design asked.
func endSKSpan(sp *obs.Span, stats *SKStats) {
	sp.Attr("mapping", stats.Mapping).Attr("sk", stats.SK).Attr("questions", stats.Questions).End()
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
	// Attributes joined by satisfy equalities, or by the where clause's
	// implied ones, carry the same value in every fired assignment, so
	// one probe decides the whole equality class (the c.cid probe of
	// Fig. 3(a) also decides p.cid).
	eqClass := mapping.NewClasses(sourceEqs(m))
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
			implied, err := w.dataImplied(tb, confirmed, probe)
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
		if ans == 1 {
			confirmed = append(confirmed, probe)
			closure = closureOf(confirmed, imps)
		} else {
			decidedOut[probe] = true
		}
	}
	return confirmed, nil
}

// ask poses one Muse-G question whose kind, mapping, grouping function,
// probe and argument lists are set: it obtains an example on the
// tableau tb already set up for the question, whose copies differ on
// differ, and runs tb's compiled chase on it with q.Include1 and
// q.Include2 as the grouping function's arguments. The two scenarios
// differ by construction (DESIGN.md §5, "Questions are decided before
// examples"). It checks the example against the source constraints,
// attaches score's ranking when a ranker is attached, and returns the
// designer's answer, 1 or 2.
func (w *GroupingWizard) ask(tb *tableau, q *GroupingQuestion, differ []mapping.Expr, score func(*rank.Scorer) rank.Ranking, d GroupingDesigner, stats *SKStats) (int, error) {
	// The probe span parents into the CURRENT request's trace —
	// w.context() is re-pointed by Stepper.install per request, so the
	// example retrieval and the two scenario chases below land in the
	// trace of the request whose answer triggered this question.
	sp, pctx := w.Obs.StartCtx(w.context(), obs.SpanMuseGProbe)
	defer sp.End()
	ie, real := w.obtainExample(pctx, tb, differ, stats)
	s1, s2, err := w.scenarios(pctx, tb.scenarios, q, ie)
	if err != nil {
		return 0, err
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
	excluded := tb.excluded
	clear(excluded)
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
	tb.undecided = tb.undecided[:0]
	for _, e := range poss {
		if !excluded[tb.slot[e]] {
			tb.undecided = append(tb.undecided, e)
		}
	}
	tb.mustDiffer = append(append(tb.mustDiffer[:0], probe), alwaysDiffer...)
	return tb.probe(confirmed, tb.undecided, tb.mustDiffer)
}

// obtainExample retrieves a real example under ctx: the witness of the
// probe's retrieval (probeRetrieval), or the synthetic instance when the
// probe is refuted on the tableau, its scan finds no witness, or the
// scan stops early.
func (w *GroupingWizard) obtainExample(ctx context.Context, tb *tableau, differ []mapping.Expr, stats *SKStats) (*instance.Instance, bool) {
	start := time.Now()
	defer func() { stats.ExampleTime += time.Since(start) }()
	if w.Real != nil {
		w.decision = newProbeRetrieval(&w.Env, tb, tb.differPairs(differ))
		if w.retrieve(ctx, &w.decision) {
			stats.RealExamples++
			ie := tb.fromRows(w.decision.rows()...)
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
// are the rows of the mapping's assignment table that keep the satisfy
// and where equalities, which are what the chase fires on.
func (w *GroupingWizard) dataImplied(tb *tableau, confirmed []mapping.Expr, probe mapping.Expr) (bool, error) {
	t, err := w.assignments(w.context(), tb)
	if err != nil {
		return false, err
	}
	keys := make([]int32, len(confirmed))
	for i, e := range confirmed {
		keys[i] = tb.slot[e]
	}
	a, _, _ := t.witness(&w.tables.hash, keys, t.eqs, tb.slot[probe])
	return a < 0, nil
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
