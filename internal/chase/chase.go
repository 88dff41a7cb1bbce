package chase

import (
	"context"
	"fmt"

	"muse/internal/instance"
	"muse/internal/mapping"
	"muse/internal/nr"
	"muse/internal/obs"
)

// Chase chases src with the given mappings and returns the canonical
// universal solution: the set union of the tuples produced by chasing
// src with each mapping (Sec. II, Fig. 2). All mappings must be
// unambiguous (interpret ambiguous mappings with Muse-D first) and
// share the same pair of schemas. The mappings are chased in order
// into one output instance.
func Chase(src *instance.Instance, ms ...*mapping.Mapping) (*instance.Instance, error) {
	return ChaseObs(src, nil, ms...)
}

// ChaseObs is Chase with observability: when o is non-nil, the run
// records one "chase" span (plus a "chase.mapping" span per mapping)
// on o's tracer and accumulates assignment/tuple/null counters on o's
// registry (DESIGN.md §8). A nil o costs one branch.
func ChaseObs(src *instance.Instance, o *obs.Obs, ms ...*mapping.Mapping) (*instance.Instance, error) {
	return ChaseCtx(context.Background(), src, o, ms...)
}

// ChaseCtx is ChaseObs under a context: the assignment enumeration
// checks ctx periodically (every few hundred candidate bindings) and
// aborts with ctx.Err() once it is cancelled or past its deadline, so
// a server's per-request deadline actually stops an in-flight chase.
// A nil ctx means context.Background(). The partial output is
// discarded: a cancelled chase returns (nil, ctx.Err()).
func ChaseCtx(ctx context.Context, src *instance.Instance, o *obs.Obs, ms ...*mapping.Mapping) (*instance.Instance, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Fail fast on a dead context: the periodic in-chase checks are
	// step-gated and may never fire on a tiny chase.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	infos, tgtCat, err := prepare(ms)
	if err != nil {
		return nil, err
	}
	sp, ctx := o.StartCtx(ctx, obs.SpanChase)
	if o != nil {
		o.Counter(obs.MChaseRuns).Inc()
		o.Gauge(obs.GChaseWorkers).Set(1)
	}
	defer sp.Attr("mappings", len(ms)).End()
	out := instance.New(tgtCat)
	for i, m := range ms {
		if err := chaseOne(ctx, src, m, infos[i], out, o); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ChaseSerial is Chase. It is kept because perfbench's exchange
// reference calls it by name.
func ChaseSerial(src *instance.Instance, ms ...*mapping.Mapping) (*instance.Instance, error) {
	return Chase(src, ms...)
}

// prepare validates the mapping set and resolves each mapping once,
// reporting the earliest mapping's error first (ambiguity before
// analysis failure).
func prepare(ms []*mapping.Mapping) ([]*mapping.Info, *nr.Catalog, error) {
	if len(ms) == 0 {
		return nil, nil, fmt.Errorf("chase: no mappings given")
	}
	tgtCat := ms[0].Tgt
	infos := make([]*mapping.Info, len(ms))
	for i, m := range ms {
		if m.Tgt != tgtCat {
			return nil, nil, fmt.Errorf("chase: mapping %s targets a different schema", m.Name)
		}
		if m.Ambiguous() {
			return nil, nil, fmt.Errorf("chase: mapping %s is ambiguous; select an interpretation first", m.Name)
		}
		info, err := m.Analyze()
		if err != nil {
			return nil, nil, err
		}
		infos[i] = info
	}
	return infos, tgtCat, nil
}

// MustChase is Chase, panicking on error.
func MustChase(src *instance.Instance, ms ...*mapping.Mapping) *instance.Instance {
	out, err := Chase(src, ms...)
	if err != nil {
		panic(err)
	}
	return out
}

func chaseOne(ctx context.Context, src *instance.Instance, m *mapping.Mapping, info *mapping.Info, out *instance.Instance, o *obs.Obs) error {
	plan, err := planTarget(m, info)
	if err != nil {
		return err
	}
	sp, _ := o.StartCtx(ctx, obs.SpanChaseMapping)
	e := newEvaluator(src, m, info)
	e.ctx = ctx
	err = e.each(func(asg assignment) error {
		return plan.emit(asg, out)
	})
	if o != nil {
		o.Counter(obs.MChaseAssignments).Add(plan.nAsg)
		o.Counter(obs.MChaseTuples).Add(plan.nTuples)
		o.Counter(obs.MChaseNulls).Add(plan.nNulls)
		o.Counter(obs.MChaseSetIDs).Add(plan.nSetIDs)
		sp.Attr("mapping", m.Name).Attr("assignments", plan.nAsg).
			Attr("tuples", plan.nTuples).Attr("nulls", plan.nNulls).End()
	}
	return err
}

// targetPlan precomputes, for one mapping, how to build the target
// tuples of an assignment: for every (exists var, attribute) slot,
// either a source expression, or a Skolem null shared by its equality
// class; and for every (exists var, set field), the grouping term.
//
// The per-variable plans are slot-aligned with instance.Tuple's
// compact storage: emit writes each slot by position (PutSlot), into a
// reusable scratch tuple per variable, and relies on the clone-on-
// insert Instance.InsertUnique so only novel tuples ever reach the
// output arena.
type targetPlan struct {
	m    *mapping.Mapping
	info *mapping.Info
	// vars holds one slot-aligned build plan per exists variable,
	// indexed by the variable's position in info.TgtOrder.
	vars []varPlan
	// skolemArgs lists the source expressions that parameterize the
	// nulls minted per assignment (all source atoms, in order).
	skolemArgs []mapping.Expr
	// checkGroups maps a target equality-class representative to all
	// source expressions feeding it (usually one); multiple feeds must
	// agree at emit time.
	checkGroups map[mapping.Expr][]mapping.Expr
	// varPos maps each exists variable to its position in
	// info.TgtOrder.
	varPos map[string]int
	// skArgs and argBuf are per-emit scratch for Skolem/grouping term
	// arguments; the interners clone them on a table miss, so reuse
	// across emits is safe. ownedSkArgs is the emit's retained clone of
	// skArgs, made lazily by the first interner miss and shared by all
	// nulls of the assignment (reset each emit).
	skArgs      []instance.Value
	ownedSkArgs []instance.Value
	argBuf      []instance.Value
	// nAsg/nTuples/nNulls/nSetIDs count this chase's work (plain ints:
	// the plan is private to one chaseOne call); chaseOne flushes them
	// to the observer's counters once per mapping, keeping atomics off
	// the per-assignment path.
	nAsg, nTuples, nNulls, nSetIDs int64
}

// varPlan is the build plan for one exists variable's tuple, aligned
// with the set type's slot layout: index i < len(st.Atoms) addresses
// atom slot i, and set-field j addresses slot len(st.Atoms)+j.
type varPlan struct {
	st *nr.SetType
	// scratch is the reusable tuple emit fills; every slot is written
	// on every emit, and InsertUnique copies it on a dedup miss, so it
	// never escapes.
	scratch *instance.Tuple
	// atomSrc[i] is the source expression feeding atom slot i; it is
	// meaningful only when nullSym[i] is empty, otherwise the slot is
	// Skolemized with that symbol.
	atomSrc []mapping.Expr
	nullSym []string
	// setTerm[j] is the grouping term for set-field slot j, and
	// child[j] the set type its SetID denotes (minted SetIDs
	// materialize as possibly-empty occurrences).
	setTerm []mapping.SKTerm
	child   []*nr.SetType
}

func planTarget(m *mapping.Mapping, info *mapping.Info) (*targetPlan, error) {
	p := &targetPlan{
		m: m, info: info,
		vars:       make([]varPlan, len(info.TgtOrder)),
		skolemArgs: m.Poss(),
		varPos:     make(map[string]int, len(info.TgtOrder)),
	}
	for i, v := range info.TgtOrder {
		p.varPos[v] = i
	}
	p.skArgs = make([]instance.Value, len(p.skolemArgs))
	// Union-find over target atom slots, merged by the exists-satisfy
	// equalities; where-clause equalities attach source expressions to
	// classes.
	parent := make(map[mapping.Expr]mapping.Expr)
	var find func(x mapping.Expr) mapping.Expr
	find = func(x mapping.Expr) mapping.Expr {
		px, ok := parent[x]
		if !ok || px == x {
			return x
		}
		root := find(px)
		parent[x] = root
		return root
	}
	union := func(a, b mapping.Expr) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, q := range m.ExistsSat {
		union(q.L, q.R)
	}
	classSource := make(map[mapping.Expr]mapping.Expr) // class root → source expr
	for _, q := range m.Where {
		root := find(q.R)
		if prev, ok := classSource[root]; ok && prev != q.L {
			// Two different source expressions feed one target slot;
			// they must be equal for the mapping to be satisfiable. The
			// chase equates them by checking at emit time.
			continue
		}
		classSource[root] = q.L
	}
	for vi, v := range info.TgtOrder {
		st := info.TgtVars[v]
		vp := &p.vars[vi]
		vp.st = st
		vp.scratch = instance.NewTuple(st)
		vp.atomSrc = make([]mapping.Expr, len(st.Atoms))
		vp.nullSym = make([]string, len(st.Atoms))
		vp.setTerm = make([]mapping.SKTerm, len(st.SetFields))
		vp.child = make([]*nr.SetType, len(st.SetFields))
		for i, a := range st.Atoms {
			slot := mapping.E(v, a)
			root := find(slot)
			if srcExpr, ok := classSource[root]; ok {
				vp.atomSrc[i] = srcExpr
			} else {
				// One null per equality class per assignment: name the
				// symbol after the class representative.
				vp.nullSym[i] = "N_" + m.Name + "_" + root.Var + "." + root.Attr
			}
		}
		for j, f := range st.SetFields {
			sk := m.SKForSet(mapping.E(v, f))
			if sk == nil {
				return nil, fmt.Errorf("chase: mapping %s has no grouping function for %s.%s (call AddDefaultSKs)", m.Name, v, f)
			}
			vp.setTerm[j] = sk.SK
			child := st.Child(f)
			if child == nil {
				return nil, fmt.Errorf("chase: mapping %s: cannot resolve target set %s.%s", m.Name, st.Path, f)
			}
			vp.child[j] = child
		}
	}
	// Consistency groups: where equalities that share a class must
	// agree at emit time; record them.
	p.checkGroups = make(map[mapping.Expr][]mapping.Expr)
	for _, q := range m.Where {
		root := find(q.R)
		p.checkGroups[root] = append(p.checkGroups[root], q.L)
	}
	return p, nil
}

// emit materializes the target tuples of one satisfying assignment.
func (p *targetPlan) emit(asg assignment, out *instance.Instance) error {
	p.nAsg++
	// Enforce multi-feed consistency: if several source expressions
	// feed one target slot, the assignment only fires when they agree
	// (the mapping asserts their equality).
	for _, feeds := range p.checkGroups {
		if len(feeds) < 2 {
			continue
		}
		first := eval(asg, feeds[0])
		for _, f := range feeds[1:] {
			if !instance.SameValue(first, eval(asg, f)) {
				return nil // unsatisfiable for this assignment: no tuples
			}
		}
	}
	// Skolem argument values shared by all nulls of this assignment
	// (scratch slice: the interner clones on a miss).
	skArgs := p.skArgs
	for i, e := range p.skolemArgs {
		skArgs[i] = eval(asg, e)
	}
	p.ownedSkArgs = nil
	// Fill each exists variable's scratch tuple slot by slot. Source-fed
	// slots copy the source value's interface header (no boxing); minted
	// nulls and SetIDs go through the output instance's intern table, so
	// re-derived terms resolve to their one canonical pointer.
	for vi := range p.vars {
		vp := &p.vars[vi]
		t := vp.scratch
		for i := range vp.atomSrc {
			if vp.nullSym[i] == "" {
				t.PutSlot(i, eval(asg, vp.atomSrc[i]))
			} else {
				t.PutSlot(i, out.InternNullShared(vp.nullSym[i], skArgs, &p.ownedSkArgs))
				p.nNulls++
			}
		}
		nAtoms := len(vp.atomSrc)
		for j := range vp.setTerm {
			term := &vp.setTerm[j]
			args := p.argBuf[:0]
			for _, e := range term.Args {
				args = append(args, eval(asg, e))
			}
			p.argBuf = args
			ref := out.InternSetRef(term.Fn, args)
			t.PutSlot(nAtoms+j, ref)
			p.nSetIDs++
			// Materialize the (possibly empty) occurrence the SetID
			// denotes, as in Fig. 2.
			out.EnsureSet(vp.child[j], ref)
		}
	}
	// Insert each tuple into its destination set occurrence. The
	// clone-on-insert path copies a scratch tuple into the output arena
	// only when its key is new; duplicate assignments allocate nothing.
	p.nTuples += int64(len(p.m.Exists))
	for _, g := range p.m.Exists {
		t := p.vars[p.varPos[g.Var]].scratch
		st := p.info.TgtVars[g.Var]
		switch {
		case g.Root != nil:
			out.InsertTopUnique(st, t)
		default:
			parent := p.vars[p.varPos[g.Parent]].scratch
			ref, ok := parent.Get(g.Field).(*instance.SetRef)
			if !ok {
				return fmt.Errorf("chase: %s.%s is not a SetID", g.Parent, g.Field)
			}
			out.InsertUnique(st, ref, t)
		}
	}
	return nil
}

func eval(asg assignment, e mapping.Expr) instance.Value {
	t := asg[e.Var]
	if t == nil {
		return nil
	}
	return t.Get(e.Attr)
}

// IsSolution reports whether tgt is a solution for src under the given
// mappings: for every assignment satisfying a mapping's for clause,
// some assignment of the exists variables over tgt satisfies the
// exists-satisfy equalities and the where correspondences. Grouping
// terms are not compared (a solution may organize its nested sets with
// any SetIDs); nesting structure is enforced by the generators
// themselves. Used by tests as the semantic ground truth.
func IsSolution(src, tgt *instance.Instance, ms ...*mapping.Mapping) (bool, error) {
	for _, m := range ms {
		if m.Ambiguous() {
			return false, fmt.Errorf("chase: mapping %s is ambiguous", m.Name)
		}
		info, err := m.Analyze()
		if err != nil {
			return false, err
		}
		e := newEvaluator(src, m, info)
		holds := true
		err = e.each(func(asg assignment) error {
			if !holds {
				return nil
			}
			if !existsWitness(tgt, m, info, asg, 0, make(map[string]*instance.Tuple)) {
				holds = false
			}
			return nil
		})
		if err != nil {
			return false, err
		}
		if !holds {
			return false, nil
		}
	}
	return true, nil
}

// existsWitness searches for target tuples witnessing the exists
// clause for one source assignment.
func existsWitness(tgt *instance.Instance, m *mapping.Mapping, info *mapping.Info, asg assignment, i int, bound map[string]*instance.Tuple) bool {
	if i >= len(m.Exists) {
		for _, q := range m.ExistsSat {
			if !instance.SameValue(bound[q.L.Var].Get(q.L.Attr), bound[q.R.Var].Get(q.R.Attr)) {
				return false
			}
		}
		for _, q := range m.Where {
			if !instance.SameValue(eval(asg, q.L), bound[q.R.Var].Get(q.R.Attr)) {
				return false
			}
		}
		return true
	}
	g := m.Exists[i]
	st := info.TgtVars[g.Var]
	var pool *instance.SetVal
	if g.Root != nil {
		pool = tgt.Top(st)
	} else {
		parent := bound[g.Parent]
		if ref, ok := parent.Get(g.Field).(*instance.SetRef); ok {
			pool = tgt.Set(ref)
		}
	}
	if pool == nil {
		return false
	}
	found := false
	pool.Each(func(t *instance.Tuple) bool {
		bound[g.Var] = t
		if existsWitness(tgt, m, info, asg, i+1, bound) {
			found = true
			return false
		}
		delete(bound, g.Var)
		return true
	})
	return found
}
