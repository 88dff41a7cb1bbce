package chase

import (
	"context"
	"fmt"
	"slices"

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
// discarded: a cancelled chase returns (nil, ctx.Err()). Each mapping
// is compiled for src's catalog (Compile) and run once.
func ChaseCtx(ctx context.Context, src *instance.Instance, o *obs.Obs, ms ...*mapping.Mapping) (*instance.Instance, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Fail fast on a dead context: the periodic in-chase checks are
	// step-gated and may never fire on a tiny chase.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	infos, err := prepare(ms)
	if err != nil {
		return nil, err
	}
	progs := make([]*Program, len(ms))
	for i, m := range ms {
		if progs[i], err = compile(m, infos[i], src.Cat); err != nil {
			return nil, err
		}
	}
	return run(ctx, src, o, progs...)
}

// ChaseSerial is Chase. It is kept because perfbench's exchange
// reference calls it by name.
func ChaseSerial(src *instance.Instance, ms ...*mapping.Mapping) (*instance.Instance, error) {
	return Chase(src, ms...)
}

// prepare validates the mapping set and resolves each mapping once,
// reporting the earliest mapping's error first (ambiguity before
// analysis failure).
func prepare(ms []*mapping.Mapping) ([]*mapping.Info, error) {
	if len(ms) == 0 {
		return nil, fmt.Errorf("chase: no mappings given")
	}
	infos := make([]*mapping.Info, len(ms))
	for i, m := range ms {
		if m.Tgt != ms[0].Tgt {
			return nil, fmt.Errorf("chase: mapping %s targets a different schema", m.Name)
		}
		if m.Ambiguous() {
			return nil, fmt.Errorf("chase: mapping %s is ambiguous; select an interpretation first", m.Name)
		}
		info, err := m.Analyze()
		if err != nil {
			return nil, err
		}
		infos[i] = info
	}
	return infos, nil
}

// MustChase is Chase, panicking on error.
func MustChase(src *instance.Instance, ms ...*mapping.Mapping) *instance.Instance {
	out, err := Chase(src, ms...)
	if err != nil {
		panic(err)
	}
	return out
}

// targetPlan is one mapping's exists clause compiled against its for
// clause: how to build the target tuples of an assignment. Every source
// expression it reads (atom feeds, Skolem and grouping arguments,
// consistency checks) is resolved to a (generator position, slot) pair
// once, and every target slot and parent set field to its position.
//
// The per-variable plans are slot-aligned with instance.Tuple's
// compact storage: emit writes each slot by position (PutSlot), into a
// reusable scratch tuple per variable, and relies on the clone-on-
// insert Instance.InsertUnique so only novel tuples ever reach the
// output arena. A child tuple goes straight into the occurrence that
// its parent's set field minted with its SetID (Instance.InternSet).
type targetPlan struct {
	// vars holds one slot-aligned build plan per exists variable,
	// indexed by the variable's position in info.TgtOrder.
	vars []varPlan
	// inserts lists the exists generators in declaration order, the
	// order emit inserts their tuples in.
	inserts []insertStep
	// skolemArgs are the source values that parameterize the nulls of
	// an assignment (all source atoms, in order), and the arguments of
	// every grouping term over all of them.
	skolemArgs []slotRef
	// checks are the where clause's implied equalities
	// (mapping.FeedEqs), each a pair of source values that must agree
	// for the assignment to fire.
	checks [][2]slotRef
	// poss is the mapping's poss(m, SK), the expressions skolemArgs
	// reads; sks locates each grouping assignment of the mapping, in
	// its SKs order, in vars.
	poss []mapping.Expr
	sks  []skSite
	// skVals/skArgs are the assignment's Skolem arguments, hashed once
	// per emit and retained, on the first intern miss, as one clone
	// shared by every null and SetID minted over them. termVals/termArgs
	// serve grouping terms over other arguments, one term at a time.
	skVals   []instance.Value
	skArgs   instance.TermArgs
	termVals []instance.Value
	termArgs instance.TermArgs
	// nAsg/nTuples/nNulls/nSetIDs count one run's work (plain ints: a
	// program serves one run at a time); runInto flushes them to the
	// observer's counters once per mapping, keeping atomics off the
	// per-assignment path.
	nAsg, nTuples, nNulls, nSetIDs int64
}

// skSite is where one grouping assignment's term is built: set field
// field of exists variable v.
type skSite struct {
	fn       string
	v, field int
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
	// atomSrc[i] is the source value feeding atom slot i; it is
	// meaningful only when nullSym[i] is empty, otherwise the slot is
	// Skolemized with that symbol.
	atomSrc []slotRef
	nullSym []string
	// setFn[j] and setArgs[j] are the grouping term for set-field slot
	// j; a nil setArgs[j] means the term takes the assignment's Skolem
	// arguments. child[j] is the set type its SetID denotes (minted
	// SetIDs materialize as possibly-empty occurrences), and occ[j] the
	// occurrence the current emit minted for it.
	setFn   []string
	setArgs [][]slotRef
	child   []*nr.SetType
	occ     []*instance.SetVal
}

// insertStep inserts one exists variable's tuple: into the top-level
// set, or into the occurrence named by the parent variable's set field
// (field is that field's index among the parent's set fields; analysis
// guarantees the parent has it).
type insertStep struct {
	v      int
	parent int
	field  int
}

// compileTarget compiles m's exists clause against the compiled for
// clause e.
func compileTarget(m *mapping.Mapping, info *mapping.Info, e *evaluator) (targetPlan, error) {
	poss := m.Poss()
	p := targetPlan{
		poss:       poss,
		vars:       make([]varPlan, len(info.TgtOrder)),
		skolemArgs: make([]slotRef, len(poss)),
		skVals:     make([]instance.Value, len(poss)),
	}
	for i, x := range poss {
		p.skolemArgs[i] = e.ref(x)
	}
	varPos := make(map[string]int, len(info.TgtOrder))
	for i, v := range info.TgtOrder {
		varPos[v] = i
	}
	// The target atom classes of the exists-satisfy equalities; the
	// where clause attaches source expressions to classes, and a class
	// takes its first feed's value (FeedEqs equates the others with it).
	tgt := mapping.NewClasses(m.ExistsSat)
	classSource := make(map[mapping.Expr]mapping.Expr) // class root → source expr
	for _, q := range m.Where {
		root := tgt.Find(q.R)
		if _, ok := classSource[root]; !ok {
			classSource[root] = q.L
		}
	}
	for vi, v := range info.TgtOrder {
		st := info.TgtVars[v]
		vp := &p.vars[vi]
		vp.st = st
		vp.scratch = instance.NewTuple(st)
		vp.atomSrc = make([]slotRef, len(st.Atoms))
		vp.nullSym = make([]string, len(st.Atoms))
		vp.setFn = make([]string, len(st.SetFields))
		vp.setArgs = make([][]slotRef, len(st.SetFields))
		vp.child = make([]*nr.SetType, len(st.SetFields))
		vp.occ = make([]*instance.SetVal, len(st.SetFields))
		for i, a := range st.Atoms {
			root := tgt.Find(mapping.E(v, a))
			if srcExpr, ok := classSource[root]; ok {
				vp.atomSrc[i] = e.ref(srcExpr)
			} else {
				// One null per equality class per assignment: name the
				// symbol after the class representative.
				vp.nullSym[i] = "N_" + m.Name + "_" + root.Var + "." + root.Attr
			}
		}
		for j, f := range st.SetFields {
			sk := m.SKForSet(mapping.E(v, f))
			if sk == nil {
				return targetPlan{}, fmt.Errorf("chase: mapping %s has no grouping function for %s.%s (call AddDefaultSKs)", m.Name, v, f)
			}
			vp.setFn[j] = sk.SK.Fn
			vp.setArgs[j] = p.groupArgs(e, sk.SK.Args, nil)
			child := st.Child(f)
			if child == nil {
				return targetPlan{}, fmt.Errorf("chase: mapping %s: cannot resolve target set %s.%s", m.Name, st.Path, f)
			}
			vp.child[j] = child
		}
	}
	for _, g := range m.Exists {
		s := insertStep{v: varPos[g.Var], parent: -1}
		if g.Root == nil {
			s.parent = varPos[g.Parent]
			s.field = slices.Index(p.vars[s.parent].st.SetFields, g.Field)
		}
		p.inserts = append(p.inserts, s)
	}
	for _, q := range m.FeedEqs() {
		p.checks = append(p.checks, [2]slotRef{e.ref(q.L), e.ref(q.R)})
	}
	p.sks = make([]skSite, len(m.SKs))
	for k, a := range m.SKs {
		v := varPos[a.Set.Var]
		p.sks[k] = skSite{fn: a.SK.Fn, v: v, field: slices.Index(p.vars[v].st.SetFields, a.Set.Attr)}
	}
	return p, nil
}

// groupArgs resolves the arguments of a grouping term: nil when they
// are all of poss in order, so the term takes the assignment's Skolem
// arguments, and otherwise one ref per argument, appended to buf[:0]
// (a fresh slice when buf is nil). The result is never nil for other
// arguments: an empty one groups by nothing.
func (p *targetPlan) groupArgs(e *evaluator, args []mapping.Expr, buf []slotRef) []slotRef {
	if slices.Equal(args, p.poss) {
		return nil
	}
	if buf == nil {
		buf = make([]slotRef, 0, len(args))
	}
	refs := buf[:0]
	for _, x := range args {
		refs = append(refs, e.ref(x))
	}
	return refs
}

// reset drops what a run left in the plan's scratch (values of its
// source and output instances) and zeroes its counters.
func (p *targetPlan) reset() {
	p.nAsg, p.nTuples, p.nNulls, p.nSetIDs = 0, 0, 0, 0
	clear(p.skVals)
	clear(p.termVals[:cap(p.termVals)])
	p.skArgs, p.termArgs = instance.TermArgs{}, instance.TermArgs{}
	for i := range p.vars {
		p.vars[i].scratch.Clear()
		clear(p.vars[i].occ)
	}
}

// emit materializes the target tuples of one satisfying assignment.
func (p *targetPlan) emit(asg assignment, out *instance.Instance) {
	p.nAsg++
	// The assignment fires only when the where clause's implied
	// equalities hold (an unset value equals an unset value).
	for _, c := range p.checks {
		if !instance.SameValue(c[0].of(asg), c[1].of(asg)) {
			return // unsatisfiable for this assignment: no tuples
		}
	}
	// The Skolem arguments shared by all nulls of this assignment, and
	// by its grouping terms over all source values: hashed once here,
	// cloned at most once, by the first term the output has not seen.
	for i, r := range p.skolemArgs {
		p.skVals[i] = r.of(asg)
	}
	p.skArgs.Set(p.skVals)
	// Fill each exists variable's scratch tuple slot by slot. Source-fed
	// slots copy the source value's interface header (no boxing); minted
	// nulls go through the output instance's intern table and SetIDs
	// through its occurrence table, so re-derived terms resolve to their
	// one canonical pointer.
	for vi := range p.vars {
		vp := &p.vars[vi]
		t := vp.scratch
		for i, sym := range vp.nullSym {
			if sym == "" {
				t.PutSlot(i, vp.atomSrc[i].of(asg))
			} else {
				t.PutSlot(i, out.InternNull(sym, &p.skArgs))
				p.nNulls++
			}
		}
		nAtoms := len(vp.nullSym)
		for j, fn := range vp.setFn {
			args := &p.skArgs
			if refs := vp.setArgs[j]; refs != nil {
				vals := p.termVals[:0]
				for _, r := range refs {
					vals = append(vals, r.of(asg))
				}
				p.termVals = vals
				p.termArgs.Set(vals)
				args = &p.termArgs
			}
			// The SetID comes with the (possibly empty) occurrence it
			// denotes, materialized as in Fig. 2.
			occ := out.InternSet(vp.child[j], fn, args)
			vp.occ[j] = occ
			t.PutSlot(nAtoms+j, occ.ID)
			p.nSetIDs++
		}
	}
	// Insert each tuple into its destination set occurrence. The
	// clone-on-insert path copies a scratch tuple into the output arena
	// only when it is new; duplicate assignments allocate nothing.
	p.nTuples += int64(len(p.inserts))
	for _, s := range p.inserts {
		vp := &p.vars[s.v]
		if s.parent < 0 {
			out.InsertUnique(out.Top(vp.st), vp.scratch)
			continue
		}
		out.InsertUnique(p.vars[s.parent].occ[s.field], vp.scratch)
	}
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
		e := forClause(src, m, info)
		holds := true
		err = e.each(func(asg assignment) error {
			if !holds {
				return nil
			}
			if !existsWitness(tgt, m, info, e, asg, 0, make(map[string]*instance.Tuple)) {
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
func existsWitness(tgt *instance.Instance, m *mapping.Mapping, info *mapping.Info, e *evaluator, asg assignment, i int, bound map[string]*instance.Tuple) bool {
	if i >= len(m.Exists) {
		for _, q := range m.ExistsSat {
			if !instance.SameValue(bound[q.L.Var].Get(q.L.Attr), bound[q.R.Var].Get(q.R.Attr)) {
				return false
			}
		}
		for _, q := range m.Where {
			if !instance.SameValue(e.value(asg, q.L), bound[q.R.Var].Get(q.R.Attr)) {
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
		if existsWitness(tgt, m, info, e, asg, i+1, bound) {
			found = true
			return false
		}
		delete(bound, g.Var)
		return true
	})
	return found
}
