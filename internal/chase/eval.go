package chase

import (
	"context"
	"slices"

	"muse/internal/instance"
	"muse/internal/mapping"
	"muse/internal/nr"
)

// assignment binds each for-generator, by its position in the
// mapping's for clause, to a source tuple.
type assignment []*instance.Tuple

// slotRef is a source expression resolved once against the for clause:
// the value in slot of the tuple bound to generator pos. pos is -1 for
// an expression that names no generator or no slot of its set; such an
// expression reads as unset (nil), as Tuple.Get reads an unknown label.
type slotRef struct{ pos, slot int }

var unresolved = slotRef{-1, -1}

func (r slotRef) of(asg assignment) instance.Value {
	if r.pos < 0 {
		return nil
	}
	return asg[r.pos].ValAt(r.slot)
}

// join is a for-satisfy equality, resolved to slots.
type join struct{ l, r slotRef }

// generator is one for-clause generator compiled to slot positions.
type generator struct {
	st *nr.SetType
	// nested generators read the occurrence whose SetID sits in parent,
	// the parent generator's set field.
	nested bool
	parent slotRef
	// joins are the equalities checkable once this generator is bound
	// (both sides bound at or before it).
	joins []join
	// probe lists the earlier-bound values a top-level generator probes
	// its index with; idx is the position of that index in the
	// evaluator's indexSlots, or -1 when the generator scans.
	probe []slotRef
	idx   int
}

// holds reports whether every join of g holds on asg. An equality over
// an unset slot never holds.
func (g *generator) holds(asg assignment) bool {
	for _, j := range g.joins {
		lv, rv := j.l.of(asg), j.r.of(asg)
		if lv == nil || rv == nil || !instance.SameValue(lv, rv) {
			return false
		}
	}
	return true
}

// evaluator enumerates the satisfying assignments of a mapping's for
// clause. It is compiled once for a source catalog: each expression
// becomes a (generator position, slot) pair, and each top-level
// generator joined to earlier ones gets one hash index over all of its
// join attributes (composite when there are several). A run binds it
// to one instance of that catalog (start) and drops the instance again
// (finish); everything a run derives from its instance lives in the
// per-run fields.
type evaluator struct {
	gens []generator
	// pos maps each for-variable to its generator position; layouts
	// holds the set type whose slot layout the catalog's tuples follow,
	// per generator.
	pos     map[string]int
	layouts []*nr.SetType
	// indexSlots lists the slots of each distinct probe index.
	// Generators over one set probing the same slots share an index. A
	// bucket may hold tuples whose values only collide in hash; the
	// generator's join checks, which cover every probed equality, drop
	// them.
	indexSlots [][]int

	// Per-run state. tops holds each generator's top-level occurrence
	// and indexes each index over it, both resolved on first use
	// because both belong to the run's instance.
	src     *instance.Instance
	tops    []*instance.SetVal
	indexes []*instance.Index
	asg     assignment
	keyVals []instance.Value // probe scratch

	// ctx, when non-nil, is polled every ctxCheckEvery candidate
	// bindings; a cancelled context aborts the enumeration with
	// ctx.Err(). The counter gate keeps the (possibly mutex-guarded)
	// ctx.Err call off the per-binding hot path.
	ctx   context.Context
	steps int
}

// ctxCheckEvery is how many candidate bindings pass between context
// polls: small enough that cancellation lands within microseconds,
// large enough that the poll never shows up in profiles.
const ctxCheckEvery = 512

// cancelled reports (gated) whether the evaluator's context is done.
func (e *evaluator) cancelled() error {
	if e.ctx == nil {
		return nil
	}
	e.steps++
	if e.steps%ctxCheckEvery != 0 {
		return nil
	}
	return e.ctx.Err()
}

// compileEvaluator compiles the enumeration plan of m's for clause for
// instances of cat, from the mapping's memoized analysis. When cat is
// not m.Src, each set's slots follow cat's own set type at the same
// path.
func compileEvaluator(m *mapping.Mapping, info *mapping.Info, cat *nr.Catalog) evaluator {
	n := len(m.For)
	e := evaluator{gens: make([]generator, n), pos: make(map[string]int, n),
		layouts: make([]*nr.SetType, n), tops: make([]*instance.SetVal, n), asg: make(assignment, n)}
	for i, g := range m.For {
		e.pos[g.Var] = i
		st := info.SrcVars[g.Var]
		e.gens[i].st = st
		e.layouts[i] = st
		if cat != m.Src {
			if it := cat.ByPath(st.Path); it != nil {
				e.layouts[i] = it
			}
		}
	}
	for i, g := range m.For {
		if g.Parent != "" {
			e.gens[i].nested = true
			e.gens[i].parent = e.ref(mapping.E(g.Parent, g.Field))
		}
	}
	probeSlots := make([][]int, n)
	for _, q := range m.ForSat {
		i, j := e.pos[q.L.Var], e.pos[q.R.Var]
		at := max(i, j)
		g := &e.gens[at]
		l, r := e.ref(q.L), e.ref(q.R)
		g.joins = append(g.joins, join{l, r})
		// Index a top-level generator on every equality joining it to an
		// earlier generator.
		mine, other := l, r
		if j == at {
			mine, other = r, l
		}
		if g.nested || i == j || mine.pos < 0 || other.pos < 0 {
			continue
		}
		g.probe = append(g.probe, other)
		probeSlots[at] = append(probeSlots[at], mine.slot)
	}
	for i := range e.gens {
		g := &e.gens[i]
		g.idx = -1
		if g.probe == nil {
			continue
		}
		for k := range i {
			if o := &e.gens[k]; o.idx >= 0 && e.layouts[k] == e.layouts[i] && slices.Equal(e.indexSlots[o.idx], probeSlots[i]) {
				g.idx = o.idx
				break
			}
		}
		if g.idx < 0 {
			g.idx = len(e.indexSlots)
			e.indexSlots = append(e.indexSlots, probeSlots[i])
		}
	}
	e.indexes = make([]*instance.Index, len(e.indexSlots))
	return e
}

// ref resolves a source expression to its generator position and slot.
func (e *evaluator) ref(x mapping.Expr) slotRef {
	i, ok := e.pos[x.Var]
	if !ok {
		return unresolved
	}
	slot := e.layouts[i].Slot(x.Attr)
	if slot < 0 {
		return unresolved
	}
	return slotRef{i, slot}
}

// value reads a source expression by label from a full assignment.
func (e *evaluator) value(asg assignment, x mapping.Expr) instance.Value {
	i, ok := e.pos[x.Var]
	if !ok {
		return nil
	}
	return asg[i].Get(x.Attr)
}

// start binds a run to src under ctx (nil: never polled).
func (e *evaluator) start(ctx context.Context, src *instance.Instance) {
	e.src, e.ctx, e.steps = src, ctx, 0
}

// finish drops everything the run read from its instance, so the
// evaluator pins no instance between runs.
func (e *evaluator) finish() {
	e.src, e.ctx = nil, nil
	clear(e.tops)
	clear(e.indexes)
	clear(e.asg)
	clear(e.keyVals[:cap(e.keyVals)])
}

// each invokes fn for every assignment satisfying the for clause. The
// assignment is reused across calls: fn must copy what it keeps.
func (e *evaluator) each(fn func(assignment) error) error {
	return e.enumerate(0, fn)
}

func (e *evaluator) enumerate(i int, fn func(assignment) error) error {
	if i == len(e.gens) {
		return fn(e.asg)
	}
	g := &e.gens[i]
	for _, t := range e.candidates(i) {
		if err := e.cancelled(); err != nil {
			return err
		}
		e.asg[i] = t
		if g.holds(e.asg) {
			if err := e.enumerate(i+1, fn); err != nil {
				return err
			}
		}
	}
	return nil
}

// candidates returns the tuples generator i may bind to, in set order:
// a nested generator's occurrence, the index bucket of a joined
// top-level generator, or the whole top-level set. The slice is the
// source's own and read-only.
func (e *evaluator) candidates(i int) []*instance.Tuple {
	g := &e.gens[i]
	if g.nested {
		ref, _ := g.parent.of(e.asg).(*instance.SetRef)
		if ref == nil {
			return nil
		}
		if occ := e.src.Set(ref); occ != nil {
			return occ.View()
		}
		return nil
	}
	top := e.tops[i]
	if top == nil {
		top = e.src.Top(g.st)
		e.tops[i] = top
	}
	if g.idx < 0 {
		return top.View()
	}
	vals := e.keyVals[:0]
	for _, r := range g.probe {
		vals = append(vals, r.of(e.asg))
	}
	e.keyVals = vals
	x := e.indexes[g.idx]
	if x == nil {
		x = instance.NewIndex(top.View(), e.indexSlots[g.idx])
		e.indexes[g.idx] = x
	}
	// A join over an unset slot never holds: Lookup finds no bucket.
	return x.Lookup(vals)
}

// forClause compiles m's for clause for src's catalog and binds it to
// src: the one-shot evaluator of Assignments and IsSolution.
func forClause(src *instance.Instance, m *mapping.Mapping, info *mapping.Info) *evaluator {
	e := compileEvaluator(m, info, src.Cat)
	e.start(nil, src)
	return &e
}

// Assignments returns all satisfying assignments of m's for clause
// over src (copied maps, safe to retain). Exported for the query
// engine's and wizards' reuse in tests.
func Assignments(src *instance.Instance, m *mapping.Mapping) ([]map[string]*instance.Tuple, error) {
	info, err := m.Analyze()
	if err != nil {
		return nil, err
	}
	e := forClause(src, m, info)
	var out []map[string]*instance.Tuple
	err = e.each(func(a assignment) error {
		cp := make(map[string]*instance.Tuple, len(a))
		for i, g := range m.For {
			cp[g.Var] = a[i]
		}
		out = append(out, cp)
		return nil
	})
	return out, err
}
