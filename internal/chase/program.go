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

// Program is one mapping's chase compiled for one source catalog: the
// for-clause evaluator (generators, joins, probe slots, layouts) and
// the target plan (variable plans, null symbols, inserts, consistency
// checks, Skolem and grouping argument refs). Compile it once and run
// it over any number of instances of that catalog. RunWithSK regroups
// one grouping function for a single run, so the two scenarios of a
// Muse-G question, which differ only in the arguments of the grouping
// function being designed, run one program.
//
// A Program serves one run at a time: its runs share scratch state, so
// callers that run one program from several goroutines must serialize
// them. A finished run keeps no reference to its source or its output.
type Program struct {
	m    *mapping.Mapping
	cat  *nr.Catalog
	e    evaluator
	plan targetPlan
	// override holds the grouping refs of RunWithSK runs, allocated by
	// the first.
	override []slotRef
}

// Compile compiles m's chase for instances of the source catalog cat.
// When cat is not m.Src, each source set's slots are resolved by path
// on cat. Like Chase, it rejects an ambiguous mapping and one that
// lacks a grouping function for a set field it populates.
func Compile(m *mapping.Mapping, cat *nr.Catalog) (*Program, error) {
	infos, err := prepare([]*mapping.Mapping{m})
	if err != nil {
		return nil, err
	}
	return compile(m, infos[0], cat)
}

func compile(m *mapping.Mapping, info *mapping.Info, cat *nr.Catalog) (*Program, error) {
	p := &Program{m: m, cat: cat, e: compileEvaluator(m, info, cat)}
	var err error
	if p.plan, err = compileTarget(m, info, &p.e); err != nil {
		return nil, err
	}
	return p, nil
}

// Run chases src with the program's mapping: the result, spans and
// counters are those of ChaseCtx(ctx, src, o, m). src must be an
// instance of the catalog the program was compiled for.
func (p *Program) Run(ctx context.Context, src *instance.Instance, o *obs.Obs) (*instance.Instance, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if src.Cat != p.cat {
		return nil, fmt.Errorf("chase: mapping %s was compiled for another source catalog", p.m.Name)
	}
	return run(ctx, src, o, p)
}

// RunWithSK is Run with args as the arguments of the grouping function
// fn: it produces what ChaseCtx(ctx, src, o, m.WithSK(fn, args))
// produces, without copying or recompiling the mapping. An empty args
// groups by nothing. It reports an error when m has no grouping
// function fn or an argument is not an atom of m's for clause.
func (p *Program) RunWithSK(ctx context.Context, src *instance.Instance, o *obs.Obs, fn string, args []mapping.Expr) (*instance.Instance, error) {
	k := slices.IndexFunc(p.plan.sks, func(s skSite) bool { return s.fn == fn })
	if k < 0 {
		return nil, fmt.Errorf("chase: mapping %s has no grouping function %s", p.m.Name, fn)
	}
	for _, x := range args {
		if i, ok := p.e.pos[x.Var]; !ok || !p.e.gens[i].st.HasAtom(x.Attr) {
			return nil, fmt.Errorf("chase: mapping %s: grouping argument %s is not an atom of the for clause", p.m.Name, x)
		}
	}
	site := p.plan.sks[k]
	setArgs := p.plan.vars[site.v].setArgs
	own := setArgs[site.field]
	refs := p.plan.groupArgs(&p.e, args, p.override)
	if refs != nil {
		p.override = refs
	}
	setArgs[site.field] = refs
	defer func() { setArgs[site.field] = own }()
	return p.Run(ctx, src, o)
}

// EachAssignment calls fn with every assignment of the program's for
// clause over src that satisfies its satisfy clause, in the order a run
// fires them: one tuple per for-clause generator, in for-clause order.
// The slice is reused across calls, so fn must copy what it keeps. A
// cancelled ctx (nil: never polled) stops the enumeration with
// ctx.Err(). src must be an instance of the catalog the program was
// compiled for.
func (p *Program) EachAssignment(ctx context.Context, src *instance.Instance, fn func([]*instance.Tuple) error) error {
	if src.Cat != p.cat {
		return fmt.Errorf("chase: mapping %s was compiled for another source catalog", p.m.Name)
	}
	p.e.start(ctx, src)
	defer p.e.finish()
	return p.e.each(func(asg assignment) error { return fn(asg) })
}

// run chases src with each program in order into one output instance of
// their common target catalog, under one "chase" span.
func run(ctx context.Context, src *instance.Instance, o *obs.Obs, progs ...*Program) (*instance.Instance, error) {
	sp, ctx := o.StartCtx(ctx, obs.SpanChase)
	if o != nil {
		o.Counter(obs.MChaseRuns).Inc()
		o.Gauge(obs.GChaseWorkers).Set(1)
	}
	defer sp.Attr("mappings", len(progs)).End()
	out := instance.New(progs[0].m.Tgt)
	for _, p := range progs {
		if err := p.runInto(ctx, src, out, o); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runInto chases src with the program into out, under one
// "chase.mapping" span, and flushes the run's counters.
func (p *Program) runInto(ctx context.Context, src, out *instance.Instance, o *obs.Obs) error {
	p.e.start(ctx, src)
	defer p.finish()
	sp, _ := o.StartCtx(ctx, obs.SpanChaseMapping)
	plan := &p.plan
	err := p.e.each(func(asg assignment) error {
		plan.emit(asg, out)
		return nil
	})
	if o != nil {
		o.Counter(obs.MChaseAssignments).Add(plan.nAsg)
		o.Counter(obs.MChaseTuples).Add(plan.nTuples)
		o.Counter(obs.MChaseNulls).Add(plan.nNulls)
		o.Counter(obs.MChaseSetIDs).Add(plan.nSetIDs)
		sp.Attr("mapping", p.m.Name).Attr("assignments", plan.nAsg).
			Attr("tuples", plan.nTuples).Attr("nulls", plan.nNulls).End()
	}
	return err
}

// finish ends a run: it drops the run's source, output values and
// counters from the program's scratch.
func (p *Program) finish() {
	p.e.finish()
	p.plan.reset()
}
