package crosscheck

import (
	"fmt"
	"math/rand"
	"slices"

	"muse/internal/core"
	"muse/internal/instance"
	"muse/internal/mapping"
)

// checkDecide is the query family's decide leg. Muse-G decides a probe
// retrieval of the decided shape on its mapping's assignment table
// instead of searching it (core.DecideProbe); the leg checks that every
// such decision agrees with the reference evaluator on the same probe
// query. Inputs come from the leg's own rand stream: random scenarios
// under random keys and FDs, and the multi-feed twins of their mappings
// (each on its feed variant too), on the scenario's instance and on
// MutateInstance copies, which bring unset slots, replaced values and
// FD violations. Each probe draws its probed, confirmed and decided-out
// attributes from poss, and sometimes more attributes its copies must
// differ on, which puts it outside the decided shape.
func checkDecide(cfg Config) []Failure {
	r := rand.New(rand.NewSource(cfg.Seed*37 + 11))
	var fails []Failure
	var probes, empty, outside, mappings int
	for drawn, attempts := 0, 0; drawn < cfg.Cases && attempts < 20*cfg.Cases; attempts++ {
		c, ok := RandomScenario(r, fmt.Sprintf("rnd-%d-%d", cfg.Seed, attempts))
		if !ok {
			continue
		}
		drawn++
		d := constraints(r, c.Deps, c.Src)
		base := []*instance.Instance{c.Src, MutateInstance(r, c.Src), MutateInstance(r, c.Src)}
		type input struct {
			m   *mapping.Mapping
			ins []*instance.Instance
		}
		var inputs []input
		for _, m := range c.Ms {
			inputs = append(inputs, input{m, base})
			if t := multiFeed(r, m); t != nil {
				inputs = append(inputs, input{t, slices.Concat(base, []*instance.Instance{feedVariant(r, t, c.Src)})})
			}
		}
		for _, in := range inputs {
			poss := in.m.Poss()
			if len(poss) == 0 {
				continue
			}
			mappings++
			for _, src := range in.ins {
				for k := 0; k < cfg.Queries; k++ {
					confirmed, out, differ := probePattern(r, poss)
					var dc core.ProbeDecision
					var ok bool
					err := guard(func() (err error) {
						dc, ok, err = core.DecideProbe(in.m, d, src, confirmed, out, differ)
						return err
					})
					name := fmt.Sprintf("decide/%s/%s/p%d", c.Name, in.m.Name, k)
					fail := func(detail string) {
						fails = append(fails, Failure{Oracle: "query", Case: name, Seed: cfg.Seed,
							Detail: fmt.Sprintf("%s (probe %s, confirmed %s, decided out %s, differ %s)", detail, differ[0], exprs(confirmed), exprs(out), exprs(differ)),
							Repro:  formatMappingSet(&mapping.Set{Mappings: []*mapping.Mapping{in.m}}) + reproQuery(dc.Query, src)})
					}
					switch {
					case err != nil:
						fail(fmt.Sprintf("deciding the probe failed: %v", err))
						continue
					case !ok:
						continue
					}
					probes++
					if !dc.Shaped {
						outside++
						continue
					}
					ref, err := dc.Query.EvalNaive(src)
					if err != nil {
						fail(fmt.Sprintf("the reference evaluator failed: %v", err))
						continue
					}
					if dc.Empty {
						empty++
					}
					if dc.Empty != (len(ref) == 0) {
						fail(fmt.Sprintf("the assignment table decided empty=%v, but the reference finds %d matches", dc.Empty, len(ref)))
					}
				}
			}
		}
	}
	cfg.logf("  query decide: %d probes on %d mappings, %d decided empty, %d non-empty, %d outside the decided shape", probes, mappings, empty, probes-outside-empty, outside)
	return fails
}

// probePattern draws a probe's agreement pattern over poss: the probed
// attribute, confirmed and decided-out attributes among the rest, and
// the attributes the copies differ on, the probed one first and
// sometimes one more.
func probePattern(r *rand.Rand, poss []mapping.Expr) (confirmed, out, differ []mapping.Expr) {
	order := r.Perm(len(poss))
	differ = []mapping.Expr{poss[order[0]]}
	for _, i := range order[1:] {
		switch x := r.Float64(); {
		case x < 0.3:
			confirmed = append(confirmed, poss[i])
		case x < 0.5:
			out = append(out, poss[i])
		case x < 0.6:
			differ = append(differ, poss[i])
		}
	}
	return confirmed, out, differ
}

// feedVariant returns a copy of in, a flat instance of twin's source, in
// which about half of the assignments of twin's for clause carry, for
// each equality its where clause implies (mapping.FeedEqs), the first
// feed's value in the second feed's attribute, so that twin's chase
// fires on them.
func feedVariant(r *rand.Rand, twin *mapping.Mapping, in *instance.Instance) *instance.Instance {
	info := twin.MustAnalyze()
	feeds := twin.FeedEqs()
	copied := make(map[*instance.Tuple]*instance.Tuple)
	asg := make(map[string]*instance.Tuple, len(twin.For))
	// The callback returns no error, so neither does the enumeration.
	_ = naiveEnumerate(in, twin, info, 0, asg, func() error {
		if r.Float64() < 0.5 {
			return nil
		}
		for _, q := range feeds {
			v := naiveEval(asg, q.L)
			t := asg[q.R.Var]
			if v == nil || t == nil {
				continue
			}
			nt := copied[t]
			if nt == nil {
				nt = t.Clone()
				copied[t] = nt
			}
			nt.Put(q.R.Attr, v)
		}
		return nil
	})
	out := instance.New(in.Cat)
	for _, st := range in.Cat.TopLevel() {
		for _, t := range in.Top(st).Tuples() {
			if nt := copied[t]; nt != nil {
				t = nt
			}
			out.InsertTop(st, t.Clone())
		}
	}
	return out
}
