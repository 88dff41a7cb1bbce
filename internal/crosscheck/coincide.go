package crosscheck

import (
	"fmt"
	"math/rand"

	"muse/internal/core"
	"muse/internal/deps"
	"muse/internal/homo"
	"muse/internal/instance"
	"muse/internal/mapping"
	"muse/internal/scenarios"
)

// coincideInput is one design run of the wizard family's coincide leg:
// mappings designed under constraints d (nil for none), with examples
// drawn from real when it is non-nil.
type coincideInput struct {
	name string
	d    *deps.Set
	real *instance.Instance
	ms   []*mapping.Mapping
}

// coincideDesigner checks every Muse-G question it is asked and
// answers it from a rand stream. The two scenarios must differ: they
// are not isomorphic, and Scenario 1 holds more SetIDs of the grouping
// function's set type than Scenario 2 (DESIGN.md §5, "Questions are
// decided before examples").
type coincideDesigner struct {
	r                      *rand.Rand
	questions, real, fails int
	first                  string
}

func (c *coincideDesigner) ChooseScenario(q *core.GroupingQuestion) (int, error) {
	c.questions++
	if q.Real {
		c.real++
	}
	a := q.Mapping.SKFor(q.SK)
	st := q.Mapping.MustAnalyze().TgtVars[a.Set.Var].Child(a.Set.Attr)
	n1, n2 := 0, 0
	q.Scenario1.EachOccurrence(st, func(*instance.SetVal) { n1++ })
	q.Scenario2.EachOccurrence(st, func(*instance.SetVal) { n2++ })
	if iso := homo.Isomorphic(q.Scenario1, q.Scenario2); iso || n1 <= n2 {
		if c.fails++; c.first == "" {
			c.first = fmt.Sprintf("question %d on %s of %s (probe %s, include1 %s, include2 %s, real %v): isomorphic %v, %d against %d SetIDs of %s\nsource:\n%sscenario1:\n%sscenario2:\n%s",
				q.Kind, q.SK, q.Mapping.Name, q.Probe, exprs(q.Include1), exprs(q.Include2), q.Real, iso, n1, n2, st.Path, q.Source, q.Scenario1, q.Scenario2)
		}
	}
	return 1 + c.r.Intn(2), nil
}

// checkCoincide is the wizard family's coincide leg: it designs each
// input under a coincideDesigner and reports the inputs where a
// question's scenarios did not differ or the wizard failed. Inputs
// come from the leg's own rand stream: random scenarios under keys
// and FDs, each without and with the real instance, and multi-feed
// twins of their mappings, without a real instance and each on its
// feed variant (feedVariant, when the constraints still hold there);
// and the Sec. VI scenarios, on their generated instances under their
// constraints and on mutated instances, under those constraints when
// they still hold.
func checkCoincide(cfg Config) []Failure {
	r := rand.New(rand.NewSource(cfg.Seed*31 + 5))
	// The feed variants draw from their own stream, so every other input
	// and answer is the same with and without them.
	rv := rand.New(rand.NewSource(cfg.Seed*31 + 6))
	inputs := make(map[string][]coincideInput)
	for drawn, attempts := 0, 0; drawn < 4*cfg.Cases && attempts < 80*cfg.Cases; attempts++ {
		c, ok := RandomScenario(r, fmt.Sprintf("rnd-%d-%d", cfg.Seed, attempts))
		if !ok {
			continue
		}
		drawn++
		d := constraints(r, c.Deps, c.Src)
		var twins []*mapping.Mapping
		for _, m := range c.Ms {
			if t := multiFeed(r, m); t != nil {
				twins = append(twins, t)
			}
		}
		inputs["random"] = append(inputs["random"], coincideInput{c.Name, d, nil, c.Ms}, coincideInput{c.Name, d, c.Src, c.Ms})
		if twins != nil {
			inputs["multifeed"] = append(inputs["multifeed"], coincideInput{c.Name, d, nil, twins})
		}
		for _, t := range twins {
			in := feedVariant(rv, t, c.Src)
			if !d.Valid(in) {
				in = c.Src
			}
			inputs["multifeed"] = append(inputs["multifeed"], coincideInput{c.Name, d, in, []*mapping.Mapping{t}})
		}
	}
	for _, s := range scenarios.All() {
		set, err := s.Generate()
		if err != nil {
			panic(fmt.Sprintf("crosscheck: scenario %s failed to generate: %v", s.Name, err))
		}
		ms, src := disambiguate(set), s.NewInstance(cfg.Scale)
		in, d := MutateInstance(r, src), s.Src
		if !d.Valid(in) {
			d = nil
		}
		inputs["secvi"] = append(inputs["secvi"], coincideInput{s.Name, s.Src, src, ms}, coincideInput{s.Name + "-mut", d, in, ms})
	}

	var fails []Failure
	for _, kind := range []string{"random", "multifeed", "secvi"} {
		var questions, real, constrained int
		for _, in := range inputs[kind] {
			cd := &coincideDesigner{r: r}
			err := guard(func() error { return designAll(in, cd) })
			questions, real = questions+cd.questions, real+cd.real
			if in.d != nil && len(in.d.Keys)+len(in.d.FDs) > 0 {
				constrained += cd.questions
			}
			fail := func(detail string) {
				fails = append(fails, Failure{Oracle: "wizard", Case: fmt.Sprintf("coincide/%s/%s/real=%v", kind, in.name, in.real != nil),
					Seed: cfg.Seed, Detail: detail, Repro: formatMappingSet(&mapping.Set{Mappings: in.ms})})
			}
			if cd.first != "" {
				fail(fmt.Sprintf("%d question(s) showed scenarios that do not differ; the first: %s", cd.fails, cd.first))
			}
			if err != nil {
				fail(fmt.Sprintf("design failed: %v", err))
			}
		}
		cfg.logf("  wizard coincide %s: %d inputs, %d questions (%d on real examples, %d under keys or FDs)", kind, len(inputs[kind]), questions, real, constrained)
	}
	return fails
}

// designAll designs every mapping of in: DesignMapping, then GroupLess
// and GroupMore on each grouping function.
func designAll(in coincideInput, d core.GroupingDesigner) error {
	for _, m := range in.ms {
		w := core.NewGroupingWizard(in.d, in.real)
		cur, err := w.DesignMapping(m, d)
		if err != nil {
			return err
		}
		for _, a := range m.SKs {
			if cur, err = w.GroupLess(cur, a.SK.Fn, d); err != nil {
				return err
			}
			if cur, err = w.GroupMore(cur, a.SK.Fn, d); err != nil {
				return err
			}
		}
	}
	return nil
}

// constraints returns the keys and references of d, plus keys and FDs
// drawn from r over d's top-level sets, each kept only when in
// satisfies it, so that real examples drawn from in satisfy them all.
func constraints(r *rand.Rand, d *deps.Set, in *instance.Instance) *deps.Set {
	out := deps.NewSet(d.Cat)
	keep := func(add func(*deps.Set) error) {
		if one := deps.NewSet(d.Cat); add(one) == nil && one.Valid(in) {
			_ = add(out)
		}
	}
	for _, k := range d.Keys {
		keep(func(s *deps.Set) error { return s.AddKey(k.Set.String(), k.Attrs...) })
	}
	for _, f := range d.Refs {
		keep(func(s *deps.Set) error {
			return s.AddRef(f.Name, f.FromSet.String(), f.FromAttrs, f.ToSet.String(), f.ToAttrs)
		})
	}
	for _, st := range d.Cat.TopLevel() {
		path, atoms := st.Path.String(), st.Atoms
		a, b, c := atoms[r.Intn(len(atoms))], atoms[r.Intn(len(atoms))], atoms[r.Intn(len(atoms))]
		if r.Float64() < 0.5 {
			keep(func(s *deps.Set) error { return s.AddKey(path, a) })
		}
		if r.Float64() < 0.5 && b != c {
			keep(func(s *deps.Set) error { return s.AddFD(path, []string{b}, []string{c}) })
		}
	}
	return out
}

// multiFeed returns a twin of m whose where clause feeds a target atom
// that m already feeds from one more for-clause atom, so that the
// where clause implies an equality (mapping.FeedEqs); nil when m has
// no grouping function or the drawn atom is the existing feed.
func multiFeed(r *rand.Rand, m *mapping.Mapping) *mapping.Mapping {
	if len(m.SKs) == 0 || len(m.Where) == 0 {
		return nil
	}
	q, poss := m.Where[r.Intn(len(m.Where))], m.Poss()
	x := poss[r.Intn(len(poss))]
	if x == q.L {
		return nil
	}
	twin := m.Clone()
	twin.Where = append(twin.Where, mapping.Eq{L: x, R: q.R})
	return twin
}
