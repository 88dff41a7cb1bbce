package query

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"time"

	"muse/internal/instance"
	"muse/internal/nr"
	"muse/internal/obs"
)

// Atom is one tuple pattern of a query: it binds tuple variable Var to
// a tuple of a set (a top-level set named by Set, or the nested set
// Parent.Field of an earlier atom's tuple), and binds each attribute
// listed in Bind to a value variable. Repeating a value variable
// across attributes expresses equality.
type Atom struct {
	Var    string
	Set    nr.Path // top-level set, when Parent is empty
	Parent string  // earlier atom's tuple variable
	Field  string  // set field of the parent's record
	Bind   map[string]string
	// Pin constrains attributes to constant values (selection).
	Pin map[string]instance.Value
}

// Query is a conjunctive query with inequalities.
type Query struct {
	Src   *nr.Catalog
	Atoms []Atom
	// Neq lists pairs of value variables required to differ.
	Neq [][2]string
}

// Match is one query answer: the matched tuple per atom (indexed as in
// Atoms) and the value of every value variable.
type Match struct {
	Tuples []*instance.Tuple
	Values map[string]instance.Value
}

// Options controls evaluation.
type Options struct {
	// Limit stops after this many matches (0 = all).
	Limit int
	// Ctx, when non-nil, is polled during the backtracking search; a
	// cancelled (or deadline-exceeded) context aborts the evaluation,
	// which returns the matches found so far and ctx.Err().
	Ctx context.Context
	// Store is a session-shared index store over the instance. When it
	// is nil (or indexes a different instance) an ephemeral store is
	// built for this evaluation, restoring the old per-Eval behavior.
	Store *IndexStore
	// Obs, when non-nil, records planner and evaluation metrics
	// (atoms costed, tier choices, rows scanned vs. returned) and one
	// "query.eval" span per Eval. Nil costs one branch per Eval.
	Obs *obs.Obs
}

// ErrBudget is returned, with the matches found so far, when a search
// examines its budget of 2^21 candidate tuples (searchBudget) without
// finishing.
var ErrBudget = fmt.Errorf("query: search budget exhausted")

// Validate resolves the query against its catalog.
func (q *Query) Validate() error {
	seen := make(map[string]*nr.SetType, len(q.Atoms))
	for i, a := range q.Atoms {
		if a.Var == "" {
			return fmt.Errorf("query: atom %d has no tuple variable", i)
		}
		if _, dup := seen[a.Var]; dup {
			return fmt.Errorf("query: tuple variable %q bound twice", a.Var)
		}
		var st *nr.SetType
		switch {
		case a.Parent == "":
			st = q.Src.ByPath(a.Set)
			if st == nil {
				return fmt.Errorf("query: atom %q: no set %q", a.Var, a.Set)
			}
			if st.Parent != nil {
				return fmt.Errorf("query: atom %q: set %q is nested; bind it through a parent atom", a.Var, a.Set)
			}
		default:
			parent, ok := seen[a.Parent]
			if !ok {
				return fmt.Errorf("query: atom %q: parent %q not bound earlier", a.Var, a.Parent)
			}
			if !parent.HasSetField(a.Field) {
				return fmt.Errorf("query: atom %q: %s has no set field %q", a.Var, parent, a.Field)
			}
			st = parent.Child(a.Field)
		}
		for attr := range a.Bind {
			if !st.HasAtom(attr) {
				return fmt.Errorf("query: atom %q: %s has no atom %q", a.Var, st, attr)
			}
		}
		for attr := range a.Pin {
			if !st.HasAtom(attr) {
				return fmt.Errorf("query: atom %q: %s has no atom %q to pin", a.Var, st, attr)
			}
		}
		seen[a.Var] = st
	}
	return nil
}

// A Decider settles a query without building, planning or searching
// it: it refutes the query from the instance's unique attributes, or
// proves it empty some other way. FirstDecided consults it before it
// builds the query.
type Decider interface {
	// Refuted reports whether the query is refuted from the unique
	// attributes that store, an index store over the instance the query
	// is evaluated on, holds.
	Refuted(store *IndexStore) bool
	// Empty reports whether the query is proved to have no match. ctx
	// carries the query.eval span, so work Empty does can open spans
	// beneath it.
	Empty(ctx context.Context) bool
	// Explain renders the proof of the last Refuted or Empty that
	// returned true, for the query.eval span of a trace that asks for
	// detail.
	Explain() string
	// Atoms returns the number of atoms of the query, for the
	// query.eval span of an evaluation that never builds it.
	Atoms() int
}

// Eval evaluates the query over the instance. Atoms are internally
// reordered by the cost-based planner (estimated candidate-set size
// from the index store's statistics), which keeps the backtracking join
// index-driven; results report tuples in the original atom order.
func (q *Query) Eval(in *instance.Instance, opt Options) ([]Match, error) {
	return eval(in, opt, nil, func() *Query { return q })
}

// eval evaluates the query build returns, under one query.eval span.
// When d is non-nil it is consulted first, and build runs only when d
// settles nothing.
func eval(in *instance.Instance, opt Options, d Decider, build func() *Query) ([]Match, error) {
	if opt.Ctx != nil {
		// Fail fast on an already-cancelled request before planning or
		// building indexes.
		if err := opt.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	o := opt.Obs
	var evalStart time.Time
	var sp *obs.Span
	ctx := opt.Ctx
	if o != nil {
		evalStart = time.Now()
		sp, ctx = o.StartCtx(opt.Ctx, obs.SpanQueryEval)
		o.Counter(obs.MQueryEvals).Inc()
	}
	out, atoms, scanned, err := evalPlanned(ctx, in, opt, sp, d, build)
	if o != nil {
		o.Counter(obs.MQueryRowsScanned).Add(scanned)
		o.Counter(obs.MQueryRowsReturned).Add(int64(len(out)))
		o.Histogram(obs.HQueryEvalSeconds).Observe(time.Since(evalStart).Seconds())
		sp.Attr("atoms", atoms).Attr("matches", len(out)).Attr("scanned", scanned).End()
	}
	return out, err
}

// evalPlanned lets d, when non-nil, refute the query and then decide
// it; otherwise it builds the query, plans it, compiles the plan into
// its slot-resolved kernel, and runs the backtracking search. ctx
// carries sp, the query.eval span. atoms is the query's atom count.
func evalPlanned(ctx context.Context, in *instance.Instance, opt Options, sp *obs.Span, d Decider, build func() *Query) (out []Match, atoms int, scanned int64, err error) {
	store := opt.Store
	if store == nil || store.Instance() != in {
		store = NewIndexStore(in)
	}
	if d != nil {
		settled := ""
		switch {
		case d.Refuted(store):
			settled = "refuted"
			opt.Obs.Counter(obs.MQueryRefuted).Inc()
		case d.Empty(ctx):
			settled = "decided"
			opt.Obs.Counter(obs.MQueryDecided).Inc()
		}
		if settled != "" {
			if sp != nil {
				sp.Attr(settled, true)
				if obs.DetailFromContext(opt.Ctx) {
					sp.Attr("explain", d.Explain())
				}
			}
			return nil, d.Atoms(), 0, nil
		}
	}
	q := build()
	if err := q.Validate(); err != nil {
		return nil, len(q.Atoms), 0, err
	}
	if err := q.checkLayout(in); err != nil {
		return nil, len(q.Atoms), 0, err
	}
	p := q.plan(store)
	if sp != nil && obs.DetailFromContext(opt.Ctx) {
		// Expensive diagnostics only when the trace asked for them
		// (flight-recorder captures): the rendered planner explanation.
		sp.Attr("explain", (&Plan{p: p}).Explain())
	}
	if o := opt.Obs; o != nil {
		o.Counter(obs.MQueryAtomsCosted).Add(int64(p.costed))
		for i := range p.plans {
			o.Counter(tierCounters[p.plans[i].tier]).Inc()
		}
	}
	e := newEvalState(compile(&p, store, in), in, opt)
	err = e.search(0)
	return e.out, len(q.Atoms), e.scanned, err
}

// checkLayout guards the compiled kernel's slot positions: they are
// resolved on the query's set types, so an instance of a different
// catalog must lay its tuples out the same way (the instance's
// occurrences, not the query's types, decide each tuple's layout).
func (q *Query) checkLayout(in *instance.Instance) error {
	if in.Cat == q.Src {
		return nil
	}
	for _, st := range q.resolveTypes() {
		it := in.Cat.ByPath(st.Path)
		if it == nil || !slices.Equal(it.Atoms, st.Atoms) || !slices.Equal(it.SetFields, st.SetFields) {
			return fmt.Errorf("query: set %s of the query's catalog is laid out differently in the instance", st)
		}
	}
	return nil
}

// First returns one match, or ok=false when the query is empty on the
// instance; a search that stops early also reports not-found, with the
// error. opt.Limit is forced to 1.
func (q *Query) First(in *instance.Instance, opt Options) (Match, bool, error) {
	return FirstDecided(in, opt, nil, func() *Query { return q })
}

// FirstDecided is First for the query build returns, with d (nil:
// none) consulted first, in the order refute, then decide: a query d
// settles reports not-found without being built, planned, indexed or
// searched, and counts in muse_query_refuted_total or
// muse_query_decided_total. build runs only when d settles nothing.
func FirstDecided(in *instance.Instance, opt Options, d Decider, build func() *Query) (Match, bool, error) {
	opt.Limit = 1
	ms, err := eval(in, opt, d, build)
	if len(ms) > 0 {
		return ms[0], true, nil
	}
	return Match{}, false, err
}

// maxIndexAttrs caps composite-index width: beyond a few attributes
// the extra selectivity is marginal and every distinct attribute set
// costs one index build.
const maxIndexAttrs = 4

// atomPlan is the per-position access plan the planner attaches to an
// ordered atom.
type atomPlan struct {
	// st is the atom's set type.
	st *nr.SetType
	// parentPos is the position of the parent atom (-1 for root atoms).
	parentPos int
	// idxAttrs is the canonically-ordered attribute list of the index
	// to probe; empty means scan.
	idxAttrs []string
	// neq lists the inequality pairs that become fully bound at this
	// position (pushed down to the earliest such atom).
	neq [][2]string
	// tier is the chosen access tier (tier* constants) and cost the
	// planner's candidate-set estimate at placement time; both feed
	// Plan.Explain and the muse_plan_tier_* counters.
	tier int8
	cost float64
}

// Access-tier labels, in preference order (Explain and the
// muse_plan_tier_* counters index by them).
const (
	tierPinnedComposite = iota
	tierBoundComposite
	tierBoundSingle
	tierScan
	tierNested
)

var tierNames = [...]string{
	tierPinnedComposite: "pinned-composite",
	tierBoundComposite:  "bound-composite",
	tierBoundSingle:     "bound-single",
	tierScan:            "scan",
	tierNested:          "nested",
}

var tierCounters = [...]string{
	tierPinnedComposite: obs.MPlanTierPinnedComposite,
	tierBoundComposite:  obs.MPlanTierBoundComposite,
	tierBoundSingle:     obs.MPlanTierBoundSingle,
	tierScan:            obs.MPlanTierScan,
	tierNested:          obs.MPlanTierNested,
}

// planned is the output of the planner: the reordered query, the
// original-position map, the per-position access plans, and the
// planning effort (atoms costed) for the metrics.
type planned struct {
	q      *Query
	back   []int
	plans  []atomPlan
	costed int
}

// resolveTypes maps each atom (in original order) to its set type.
// Validate has succeeded, so parents precede children.
func (q *Query) resolveTypes() []*nr.SetType {
	byVar := make(map[string]*nr.SetType, len(q.Atoms))
	types := make([]*nr.SetType, len(q.Atoms))
	for i, a := range q.Atoms {
		var st *nr.SetType
		if a.Parent == "" {
			st = q.Src.ByPath(a.Set)
		} else {
			st = byVar[a.Parent].Child(a.Field)
		}
		byVar[a.Var] = st
		types[i] = st
	}
	return types
}

// plan orders the atoms by estimated candidate-set size and attaches
// per-position access plans. An atom is ready once its parent (if any)
// is placed; among ready atoms the cheapest is placed next, costed as:
//
//   - nested atom: the average occurrence size of its set type (the
//     parent's SetRef pins the occurrence);
//   - indexed atom: cardinality scaled by the selectivity (1/distinct)
//     of every pinned or already-bound attribute, probed through a
//     composite index when ≥2 attributes are usable;
//   - otherwise: a full scan at the set's cardinality.
//
// Cost ties break by access tier (pinned composite < bound composite <
// bound single < scan) and then by original atom position, so the plan
// is fully deterministic — no map-iteration order is consulted.
func (q *Query) plan(store *IndexStore) planned {
	n := len(q.Atoms)
	types := q.resolveTypes()
	placed := make([]bool, n)
	boundVars := make(map[string]bool)
	placedPos := make(map[string]int)
	order := make([]int, 0, n)
	plans := make([]atomPlan, 0, n)
	costed := 0
	for len(order) < n {
		best, bestTier := -1, 0
		var bestCost float64
		var bestAttrs []string
		for i := 0; i < n; i++ {
			a := q.Atoms[i]
			if placed[i] || (a.Parent != "" && !has(placedPos, a.Parent)) {
				continue
			}
			cost, tier, attrs := atomCost(a, types[i], boundVars, store)
			costed++
			if best < 0 || cost < bestCost || (cost == bestCost && tier < bestTier) {
				best, bestCost, bestTier, bestAttrs = i, cost, tier, attrs
			}
		}
		a := q.Atoms[best]
		placed[best] = true
		pos := len(order)
		placedPos[a.Var] = pos
		for _, attr := range types[best].Atoms {
			if vvar, ok := a.Bind[attr]; ok {
				boundVars[vvar] = true
			}
		}
		pp := -1
		if a.Parent != "" {
			pp = placedPos[a.Parent]
		}
		plans = append(plans, atomPlan{
			st: types[best], parentPos: pp, idxAttrs: bestAttrs,
			tier: tierLabel(a, bestTier, bestAttrs), cost: bestCost,
		})
		order = append(order, best)
	}

	atoms := make([]Atom, n)
	back := make([]int, n)
	for pos, idx := range order {
		atoms[pos] = q.Atoms[idx]
		back[pos] = idx
	}
	ordered := &Query{Src: q.Src, Atoms: atoms, Neq: q.Neq}
	pushDownNeq(ordered, plans)
	return planned{q: ordered, back: back, plans: plans, costed: costed}
}

// tierLabel maps an atom's cost tier (atomCost's ordering value) to
// the access-tier label recorded on its plan.
func tierLabel(a Atom, costTier int, attrs []string) int8 {
	switch {
	case a.Parent != "":
		return tierNested
	case len(attrs) == 0:
		return tierScan
	case costTier == 0:
		return tierPinnedComposite
	case costTier == 1:
		return tierBoundComposite
	default:
		return tierBoundSingle
	}
}

func has(m map[string]int, k string) bool { _, ok := m[k]; return ok }

// atomCost estimates the candidate-set size of evaluating atom a next,
// given the value variables bound so far, and returns the access tier
// and the (canonically ordered) index attributes to probe.
func atomCost(a Atom, st *nr.SetType, boundVars map[string]bool, store *IndexStore) (float64, int, []string) {
	if a.Parent != "" {
		return store.Stats(st).AvgOccSize(), 1, nil
	}
	stats := store.Stats(st)
	// Usable attributes in schema order (deterministic): pins first
	// preference is expressed through the tier, not the scan order.
	type keyed struct {
		attr     string
		distinct int
		pinned   bool
	}
	var usable []keyed
	pins := 0
	for _, attr := range st.Atoms {
		if _, ok := a.Pin[attr]; ok {
			usable = append(usable, keyed{attr, stats.Distinct[attr], true})
			pins++
			continue
		}
		if vvar, ok := a.Bind[attr]; ok && boundVars[vvar] {
			usable = append(usable, keyed{attr, stats.Distinct[attr], false})
		}
	}
	if len(usable) == 0 {
		return float64(stats.Card), 3, nil
	}
	// Keep the most selective attributes (highest distinct count),
	// capped at maxIndexAttrs; ties keep schema order (stable sort).
	if len(usable) > maxIndexAttrs {
		for i := 1; i < len(usable); i++ {
			for j := i; j > 0 && usable[j].distinct > usable[j-1].distinct; j-- {
				usable[j], usable[j-1] = usable[j-1], usable[j]
			}
		}
		usable = usable[:maxIndexAttrs]
	}
	cost := float64(stats.Card)
	attrs := make([]string, 0, len(usable))
	for _, u := range usable {
		attrs = append(attrs, u.attr)
		if u.distinct > 0 {
			cost /= float64(u.distinct)
		} else {
			cost = 0 // every value of this attr is unset: nothing can match
		}
	}
	tier := 2
	if len(attrs) >= 2 {
		if pins > 0 {
			tier = 0
		} else {
			tier = 1
		}
	}
	// attrs is freshly built above; sort it in place into the canonical
	// index-attribute order.
	sort.Strings(attrs)
	return cost, tier, attrs
}

// pushDownNeq attaches each inequality pair to the earliest position
// at which both sides are bound; pairs with a side that never binds
// are dropped (they were never checked before either).
func pushDownNeq(q *Query, plans []atomPlan) {
	firstBound := make(map[string]int)
	for pos, a := range q.Atoms {
		for _, vvar := range a.Bind {
			if _, ok := firstBound[vvar]; !ok {
				firstBound[vvar] = pos
			}
		}
	}
	for _, ne := range q.Neq {
		l, lok := firstBound[ne[0]]
		r, rok := firstBound[ne[1]]
		if !lok || !rok {
			continue
		}
		pos := l
		if r > pos {
			pos = r
		}
		plans[pos].neq = append(plans[pos].neq, ne)
	}
}
