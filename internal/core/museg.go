package core

import (
	"context"
	"fmt"
	"sort"
	"strings"
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
	// SrcDeps holds the source keys/FDs/referential constraints used
	// for question reduction (may be nil: the basic Sec. III-A
	// algorithm).
	SrcDeps *deps.Set
	// Real is the actual source instance examples are drawn from when
	// possible (may be nil: always synthetic).
	Real *instance.Instance
	// Timeout bounds each real-example retrieval; past it Muse-G falls
	// back to a synthetic example (Sec. VI). Zero means no bound.
	Timeout time.Duration
	// InstanceOnly, when set, designs grouping only for the Real
	// instance: attributes whose inclusion is inconsequential on Real
	// are skipped (Sec. III-C "Designing grouping functions only for
	// the instance I").
	InstanceOnly bool
	// Prefetch, when set, retrieves the next probe's real example in
	// the background while the designer considers the current question
	// (the "think time" optimization of Sec. VI).
	Prefetch bool
	prefetch *exampleCache
	// Store caches hash indexes and statistics over Real across the
	// whole session, shared by every probe query and prefetch worker.
	// Left nil, it is created lazily on the first retrieval; a Session
	// shares one store between Muse-G and Muse-D.
	Store *query.IndexStore
	// Ranker, when non-nil, scores each posed question's options
	// against the real-instance evidence and attaches the ranking to
	// the question envelope. Purely advisory: it never changes which
	// questions are asked, their order, or their content, and the nil
	// default adds no work (and no allocations) to the dialog path.
	Ranker *rank.Scorer
	// Obs, when non-nil, mirrors the per-SK stats onto its registry
	// (muse_museg_*), threads through to the chase and query engines,
	// and records "museg.*" spans. Nil disables all of it.
	Obs *obs.Obs
	// Ctx, when non-nil, bounds the wizard's work: example retrieval
	// and scenario chases abort with Ctx.Err() once it is cancelled or
	// past its deadline, unwinding DesignSK with that error. A server
	// hosting the wizard installs the per-request context here before
	// resuming the dialog (see Stepper); nil means context.Background().
	Ctx context.Context
	// Stats accumulates per-grouping-function effort.
	Stats Stats
}

// context returns the wizard's bounding context, defaulting to
// Background.
func (w *GroupingWizard) context() context.Context {
	if w.Ctx != nil {
		return w.Ctx
	}
	return context.Background()
}

// retrieval returns the query options for one real-example retrieval,
// creating the session's index store on first use. It must be called
// from the wizard's own goroutine; prefetch workers capture the
// returned value (the store itself is concurrency-safe).
func (w *GroupingWizard) retrieval() query.Options {
	if w.Real != nil && (w.Store == nil || w.Store.Instance() != w.Real) {
		w.Store = query.NewIndexStore(w.Real).Observe(w.Obs.Registry())
	}
	return query.Options{Timeout: w.Timeout, Ctx: w.Ctx, Store: w.Store, Obs: w.Obs}
}

// ranker returns the attached scorer with the session's shared index
// store installed (the store may have been created lazily after the
// scorer was attached). Callers check w.Ranker != nil first.
func (w *GroupingWizard) ranker() *rank.Scorer {
	if w.Ranker.Store == nil {
		w.Ranker.Store = w.Store
	}
	return w.Ranker
}

// recordSK appends one grouping function's record and mirrors its
// aggregates onto the registry.
func (w *GroupingWizard) recordSK(stats SKStats) {
	w.Stats.SKs = append(w.Stats.SKs, stats)
	if w.Obs == nil {
		return
	}
	r := w.Obs.Reg
	r.Counter(obs.MMuseGSKs).Inc()
	r.Counter(obs.MMuseGQuestions).Add(int64(stats.Questions))
	r.Counter(obs.MMuseGRealExamples).Add(int64(stats.RealExamples))
	r.Counter(obs.MMuseGSyntheticExamples).Add(int64(stats.SyntheticExamples))
	r.Counter(obs.MMuseGExampleTuples).Add(int64(stats.ExampleTuples))
}

// NewGroupingWizard constructs a wizard with the given constraints and
// real instance (both optional).
func NewGroupingWizard(srcDeps *deps.Set, real *instance.Instance) *GroupingWizard {
	return &GroupingWizard{SrcDeps: srcDeps, Real: real, Timeout: 500 * time.Millisecond}
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
	imps := tableauImplications(m, w.SrcDeps)
	keyAttrs, rest := keyCovered(m, w.SrcDeps)

	var confirmed []mapping.Expr
	candidates := append(append([]mapping.Expr{}, keyAttrs...), rest...)
	alwaysDiffer := []mapping.Expr(nil)

	if multiKeyed(m, w.SrcDeps) && len(keyAttrs) > 0 {
		// Sec. III-B, multiple keys: one question decides between
		// grouping by key (same effect as any superset including any
		// key) and grouping by a subset of the non-key attributes.
		ans, err := w.askKeyGrouping(m, fn, keyAttrs, rest, d, &stats)
		if err != nil {
			return nil, err
		}
		if ans == 1 {
			stats.Result = keyAttrs
			w.recordSK(stats)
			return m.WithSK(fn, keyAttrs), nil
		}
		// Restrict to non-key attributes; key attributes stay distinct
		// across copies so every constructed instance satisfies all
		// keys.
		candidates = rest
		alwaysDiffer = keyAttrs
	}

	// Attributes joined by satisfy equalities always carry the same
	// value, so one probe decides the whole equality class (the c.cid
	// probe of Fig. 3(a) also decides p.cid).
	eqClass := newExprClasses(m.ForSat)
	if w.Prefetch && w.prefetch == nil {
		w.prefetch = newExampleCache()
		defer w.prefetch.wait()
	}
	decidedOut := make(map[mapping.Expr]bool)
	for ci, probe := range candidates {
		if err := w.context().Err(); err != nil {
			return nil, err
		}
		if coversPoss(confirmed, poss, imps) {
			// Thm 3.2 / Cor 3.3: everything left is inconsequential.
			break
		}
		if inClosure(confirmed, probe, imps) {
			// FD generalization of Thm 3.2: probe's membership cannot
			// change the grouping semantics; skip the question.
			continue
		}
		if decided := eqClass.anyDecided(probe, decidedOut); decided {
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
		var next *mapping.Expr
		if ci+1 < len(candidates) {
			next = &candidates[ci+1]
		}
		ans, skipped, err := w.askProbe(m, fn, poss, confirmed, decidedOut, probe, alwaysDiffer, next, d, &stats)
		if err != nil {
			return nil, err
		}
		if skipped {
			continue
		}
		if ans == 1 {
			confirmed = append(confirmed, probe)
		} else {
			decidedOut[probe] = true
		}
	}

	stats.Result = confirmed
	w.recordSK(stats)
	return m.WithSK(fn, confirmed), nil
}

// askProbe builds the probe example for one attribute, obtains a real
// or synthetic instance, chases the two scenarios, and asks the
// designer. skipped is true when the probe turned out inconsequential
// (no question was posed).
func (w *GroupingWizard) askProbe(m *mapping.Mapping, fn string, poss, confirmed []mapping.Expr, decidedOut map[mapping.Expr]bool, probe mapping.Expr, alwaysDiffer []mapping.Expr, next *mapping.Expr, d GroupingDesigner, stats *SKStats) (int, bool, error) {
	tb, ok := w.probeSetup(m, poss, confirmed, decidedOut, probe, alwaysDiffer)
	if !ok {
		// The constraints force the probed attribute to agree whenever
		// the confirmed ones do: its membership is inconsequential.
		return 0, true, nil
	}

	with := append(append([]mapping.Expr{}, confirmed...), probe)
	d1 := m.WithSK(fn, with)
	d2 := m.WithSK(fn, confirmed)

	ie, real, err := w.obtainExampleCached(tb, fn, confirmed, decidedOut, probe, alwaysDiffer, stats)
	if err != nil {
		return 0, false, err
	}
	// The probe span parents into the CURRENT request's trace —
	// w.context() is re-pointed by Stepper.install per request, so the
	// two scenario chases below land in the trace of the request whose
	// answer triggered this probe.
	sp, pctx := w.Obs.StartCtx(w.context(), obs.SpanMuseGProbe)
	defer sp.End()
	s1, err := chase.ChaseCtx(pctx, ie, w.Obs, d1)
	if err != nil {
		return 0, false, err
	}
	s2, err := chase.ChaseCtx(pctx, ie, w.Obs, d2)
	if err != nil {
		return 0, false, err
	}
	if homo.Isomorphic(s1, s2) {
		if real {
			// The real example is too coincidental to differentiate the
			// scenarios; fall back to the synthetic instance.
			ie = tb.synthetic()
			real = false
			stats.RealExamples--
			stats.SyntheticExamples++
			if s1, err = chase.ChaseCtx(pctx, ie, w.Obs, d1); err != nil {
				return 0, false, err
			}
			if s2, err = chase.ChaseCtx(pctx, ie, w.Obs, d2); err != nil {
				return 0, false, err
			}
		}
		if homo.Isomorphic(s1, s2) {
			return 0, true, nil
		}
	}
	if w.SrcDeps != nil {
		if v := w.SrcDeps.Check(ie); len(v) > 0 {
			return 0, false, fmt.Errorf("core: probe on %s constructed an invalid example: %v", probe, v[0])
		}
	}

	q := &GroupingQuestion{
		Kind: QuestionProbe, Mapping: m, SK: fn, Probe: probe,
		Confirmed: confirmed, Source: ie, Real: real,
		Scenario1: s1, Scenario2: s2,
		Include1: with, Include2: confirmed,
	}
	if w.Ranker != nil {
		rk := w.ranker().ScoreProbe(m, probe, confirmed)
		q.Ranking = &rk
	}
	// Use the designer's think time to retrieve the next probe's
	// example speculatively, for both possible answers (Sec. VI).
	if w.prefetch != nil && w.Real != nil && next != nil {
		outPlus := copyDecided(decidedOut)
		outPlus[probe] = true
		w.spawnPrefetch(m, fn, poss, with, decidedOut, *next, alwaysDiffer)
		w.spawnPrefetch(m, fn, poss, confirmed, outPlus, *next, alwaysDiffer)
	}
	// End the span as the question is posed, not when it is answered:
	// the designer's think time crosses requests (the answer arrives
	// with the next HTTP call), and the flight recorder needs the
	// probe's compute spans completed within the request that did the
	// work. The deferred End above is then a no-op.
	sp.Attr("probe", probe.String()).Attr("real", real).End()
	ans, err := d.ChooseScenario(q)
	if err != nil {
		return 0, false, err
	}
	if ans != 1 && ans != 2 {
		return 0, false, fmt.Errorf("core: designer answered %d, want 1 or 2", ans)
	}
	stats.Questions++
	return ans, false, nil
}

// askKeyGrouping poses the multi-key question: copies agree on every
// non-key attribute and differ on every key-covered attribute, so
// grouping by (any) key yields two nested sets and grouping by any
// non-key subset yields one.
func (w *GroupingWizard) askKeyGrouping(m *mapping.Mapping, fn string, keyAttrs, rest []mapping.Expr, d GroupingDesigner, stats *SKStats) (int, error) {
	tb, ok := buildProbeTableau(m, w.SrcDeps, nil, rest, keyAttrs)
	if !ok {
		return 0, fmt.Errorf("core: cannot construct the multi-key question for %s: key attributes collapse", fn)
	}
	tb.finalize()

	d1 := m.WithSK(fn, keyAttrs)
	d2 := m.WithSK(fn, nil)
	ie, real, err := w.obtainExample(tb, keyAttrs, stats)
	if err != nil {
		return 0, err
	}
	s1, err := chase.ChaseCtx(w.context(), ie, w.Obs, d1)
	if err != nil {
		return 0, err
	}
	s2, err := chase.ChaseCtx(w.context(), ie, w.Obs, d2)
	if err != nil {
		return 0, err
	}
	q := &GroupingQuestion{
		Kind: QuestionKeyGrouping, Mapping: m, SK: fn,
		Source: ie, Real: real, Scenario1: s1, Scenario2: s2,
		Include1: keyAttrs, Include2: nil,
	}
	if w.Ranker != nil {
		rk := w.ranker().ScoreKeyGrouping(m, keyAttrs, rest)
		q.Ranking = &rk
	}
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

// probeSetup computes the agreement pattern of a probe (Sec. III-A) —
// confirmed and undecided attributes agree across copies, the probed
// attribute (and the multi-key branch's key attributes) differ,
// decided-out attributes are unconstrained — and builds the two-copy
// tableau. ok is false when the probe is unconstructible
// (inconsequential).
func (w *GroupingWizard) probeSetup(m *mapping.Mapping, poss, confirmed []mapping.Expr, decidedOut map[mapping.Expr]bool, probe mapping.Expr, alwaysDiffer []mapping.Expr) (*tableau, bool) {
	excluded := make(map[string]bool, len(decidedOut)+1+len(alwaysDiffer)+len(confirmed))
	for k := range decidedOut {
		excluded[k.String()] = true
	}
	excluded[probe.String()] = true
	for _, e := range confirmed {
		excluded[e.String()] = true
	}
	for _, e := range alwaysDiffer {
		excluded[e.String()] = true
	}
	var undecided []mapping.Expr
	for _, e := range poss {
		if !excluded[e.String()] {
			undecided = append(undecided, e)
		}
	}
	mustDiffer := append([]mapping.Expr{probe}, alwaysDiffer...)
	tb, ok := buildProbeTableau(m, w.SrcDeps, confirmed, undecided, mustDiffer)
	if !ok {
		return nil, false
	}
	tb.finalize()
	return tb, true
}

// patternKey identifies a probe pattern for the prefetch cache.
func patternKey(fn string, confirmed []mapping.Expr, decidedOut map[mapping.Expr]bool, probe mapping.Expr, alwaysDiffer []mapping.Expr) string {
	outs := make([]string, 0, len(decidedOut))
	for k := range decidedOut {
		outs = append(outs, k.String())
	}
	sort.Strings(outs)
	return fn + "\x01" + sortedExprs(confirmed) + "\x01" + strings.Join(outs, ",") +
		"\x01" + probe.String() + "\x01" + sortedExprs(alwaysDiffer)
}

func copyDecided(m map[mapping.Expr]bool) map[mapping.Expr]bool {
	out := make(map[mapping.Expr]bool, len(m)+1)
	for k, v := range m {
		out[k] = v
	}
	return out
}

// spawnPrefetch starts a background retrieval of the example for a
// future probe pattern.
func (w *GroupingWizard) spawnPrefetch(m *mapping.Mapping, fn string, poss, confirmed []mapping.Expr, decidedOut map[mapping.Expr]bool, probe mapping.Expr, alwaysDiffer []mapping.Expr) {
	key := patternKey(fn, confirmed, decidedOut, probe, alwaysDiffer)
	confirmed = append([]mapping.Expr{}, confirmed...)
	decidedOut = copyDecided(decidedOut)
	// Resolve the retrieval options (and thus the shared store) on the
	// wizard goroutine; the worker only reads the copied value.
	opt := w.retrieval()
	w.prefetch.spawn(key, func() (*instance.Instance, bool) {
		tb, ok := w.probeSetup(m, poss, confirmed, decidedOut, probe, alwaysDiffer)
		if !ok {
			return nil, false
		}
		q := tb.realQuery([]mapping.Expr{probe})
		match, found, _ := q.FirstOpts(w.Real, opt)
		if !found {
			return nil, false
		}
		return tb.fromMatch(match, w.Real), true
	})
}

// obtainExampleCached consults the prefetch cache before falling back
// to a synchronous retrieval.
func (w *GroupingWizard) obtainExampleCached(tb *tableau, fn string, confirmed []mapping.Expr, decidedOut map[mapping.Expr]bool, probe mapping.Expr, alwaysDiffer []mapping.Expr, stats *SKStats) (*instance.Instance, bool, error) {
	if w.prefetch != nil {
		key := patternKey(fn, confirmed, decidedOut, probe, alwaysDiffer)
		if entry := w.prefetch.lookup(key); entry != nil {
			start := time.Now()
			<-entry.done
			stats.ExampleTime += time.Since(start)
			if entry.ie != nil {
				stats.RealExamples++
				stats.ExampleTuples += entry.ie.TupleCount()
				return entry.ie, true, nil
			}
			stats.SyntheticExamples++
			ie := tb.synthetic()
			stats.ExampleTuples += ie.TupleCount()
			return ie, false, nil
		}
	}
	return w.obtainExample(tb, []mapping.Expr{probe}, stats)
}

// obtainExample retrieves a real example via the probe query, falling
// back to the synthetic instance on a miss or timeout.
func (w *GroupingWizard) obtainExample(tb *tableau, differ []mapping.Expr, stats *SKStats) (*instance.Instance, bool, error) {
	start := time.Now()
	defer func() { stats.ExampleTime += time.Since(start) }()
	if w.Real != nil {
		q := tb.realQuery(differ)
		match, ok, _ := q.FirstOpts(w.Real, w.retrieval())
		if ok {
			stats.RealExamples++
			ie := tb.fromMatch(match, w.Real)
			stats.ExampleTuples += ie.TupleCount()
			return ie, true, nil
		}
	}
	stats.SyntheticExamples++
	ie := tb.synthetic()
	stats.ExampleTuples += ie.TupleCount()
	return ie, false, nil
}

// dataImplied reports whether, on the real instance, the probed
// attribute is constant within every group of assignments that agree
// on the confirmed attributes — in which case including it cannot
// change the grouping of any tuple of this instance. The assignments
// are enumerated through the shared index store (the mapping's
// canonical tableau as a query); a retrieval that times out before
// enumerating every assignment conservatively keeps the question.
func (w *GroupingWizard) dataImplied(m *mapping.Mapping, confirmed []mapping.Expr, probe mapping.Expr) (bool, error) {
	tb := newTableau(m, 1)
	tb.finalize()
	q := tb.realQuery(nil)
	matches, err := q.Eval(w.Real, w.retrieval())
	if err != nil {
		if err == query.ErrTimeout {
			return false, nil
		}
		return false, err
	}
	groups := make(map[string]string)
	var gkeyBuf, pvBuf []byte
	for _, match := range matches {
		gkeyBuf = gkeyBuf[:0]
		for _, e := range confirmed {
			if v := match.Tuples[tb.atomIndex(1, e.Var)].Get(e.Attr); v != nil {
				gkeyBuf = instance.AppendValueKey(gkeyBuf, v)
			}
			gkeyBuf = append(gkeyBuf, '\x06')
		}
		pvBuf = pvBuf[:0]
		if v := match.Tuples[tb.atomIndex(1, probe.Var)].Get(probe.Attr); v != nil {
			pvBuf = instance.AppendValueKey(pvBuf, v)
		}
		// Probe with the scratch buffers; key strings are materialized
		// only when a new group is recorded.
		if prev, ok := groups[string(gkeyBuf)]; ok {
			if prev != string(pvBuf) {
				return false, nil
			}
			continue
		}
		groups[string(gkeyBuf)] = string(pvBuf)
	}
	return true, nil
}

// coversPoss reports whether the closure of the confirmed attributes
// under the lifted implications contains all of poss (Thm 3.2: the
// rest is inconsequential).
func coversPoss(confirmed, poss []mapping.Expr, imps []deps.Implication) bool {
	if len(confirmed) == 0 {
		return false
	}
	cl := closureOf(confirmed, imps)
	for _, e := range poss {
		if !cl[e.String()] {
			return false
		}
	}
	return true
}

// inClosure reports whether probe is functionally determined by the
// confirmed attributes.
func inClosure(confirmed []mapping.Expr, probe mapping.Expr, imps []deps.Implication) bool {
	if len(confirmed) == 0 {
		return false
	}
	return closureOf(confirmed, imps)[probe.String()]
}

func closureOf(es []mapping.Expr, imps []deps.Implication) map[string]bool {
	start := make([]string, len(es))
	for i, e := range es {
		start[i] = e.String()
	}
	return deps.CloseOver(imps, start)
}

// exprClasses is a union-find over attribute expressions connected by
// satisfy equalities.
type exprClasses struct {
	parent map[mapping.Expr]mapping.Expr
}

func newExprClasses(eqs []mapping.Eq) *exprClasses {
	c := &exprClasses{parent: make(map[mapping.Expr]mapping.Expr)}
	for _, q := range eqs {
		ra, rb := c.find(q.L), c.find(q.R)
		if ra != rb {
			c.parent[ra] = rb
		}
	}
	return c
}

func (c *exprClasses) find(x mapping.Expr) mapping.Expr {
	p, ok := c.parent[x]
	if !ok || p == x {
		return x
	}
	root := c.find(p)
	c.parent[x] = root
	return root
}

// anyDecided reports whether some expression in probe's equality class
// was already decided out. decidedOut is keyed by the Expr itself, so
// attribute paths containing dots need no (mis)parsing of rendered
// strings.
func (c *exprClasses) anyDecided(probe mapping.Expr, decidedOut map[mapping.Expr]bool) bool {
	root := c.find(probe)
	for k := range decidedOut {
		if c.find(k) == root {
			return true
		}
	}
	return false
}
