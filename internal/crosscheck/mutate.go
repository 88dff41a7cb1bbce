package crosscheck

import (
	"fmt"
	"math/rand"

	"muse/internal/cliogen"
	"muse/internal/deps"
	"muse/internal/instance"
	"muse/internal/mapping"
	"muse/internal/nr"
	"muse/internal/scenarios"
)

// Case is one chase-oracle input: a source instance plus an
// unambiguous mapping set over it.
type Case struct {
	Name string
	Src  *instance.Instance
	Ms   []*mapping.Mapping
}

// adversarialValues are constants the mutator injects alongside values
// already present in the instance: the empty string, strings that
// collide with common key formats, whitespace, unicode, and CSV/XML
// metacharacters.
var adversarialValues = []string{"", "0", "1", " padded ", "héllo ☃", "a,b\nc", "<x>&amp;</x>", "\x00"}

// disambiguate resolves every ambiguous mapping of a generated set to
// its all-zeros interpretation, the same convention the chase
// determinism tests use.
func disambiguate(set *mapping.Set) []*mapping.Mapping {
	var ms []*mapping.Mapping
	for _, m := range set.Mappings {
		if m.Ambiguous() {
			m = m.Interpretation(make([]int, len(m.OrGroups)))
		}
		ms = append(ms, m)
	}
	return ms
}

// FigureCases returns the six hand-built figure inputs: Fig. 1 with
// and without key constraints, and Fig. 4 in all four interpretations.
// They are cheap to build, so fuzz targets use them directly.
func FigureCases() []*Case {
	var cases []*Case
	f1 := scenarios.NewFigure1(true)
	cases = append(cases, &Case{Name: "fig1", Src: f1.Source, Ms: []*mapping.Mapping{f1.M1, f1.M2, f1.M3}})
	f1n := scenarios.NewFigure1(false)
	cases = append(cases, &Case{Name: "fig1-nokeys", Src: f1n.Source, Ms: []*mapping.Mapping{f1n.M1, f1n.M2, f1n.M3}})
	f4 := scenarios.NewFigure4()
	for _, choice := range [][]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}} {
		m := f4.MA.Interpretation(choice)
		cases = append(cases, &Case{
			Name: fmt.Sprintf("fig4-%d%d", choice[0], choice[1]),
			Src:  f4.Source, Ms: []*mapping.Mapping{m},
		})
	}
	return cases
}

// BaseCases returns the deterministic non-mutated inputs: the figure
// cases plus the four Sec. VI evaluation scenarios at the configured
// scale.
func BaseCases(scale float64) []*Case {
	cases := FigureCases()
	for _, s := range scenarios.All() {
		set, err := s.Generate()
		if err != nil {
			// The builtin scenarios always generate; a failure here is
			// itself a bug and surfaces as an impossible case.
			panic(fmt.Sprintf("crosscheck: scenario %s failed to generate: %v", s.Name, err))
		}
		cases = append(cases, &Case{Name: s.Name, Src: s.NewInstance(scale), Ms: disambiguate(set)})
	}
	return cases
}

// MutateInstance returns a seeded adversarial variant of in over the
// same catalog: tuples dropped, slots unset, slot values replaced, and
// fresh partially-filled tuples injected, with constants drawn from
// the instance itself plus adversarialValues. Nested occurrences are
// carried over under their original SetIDs (mutated recursively), so
// the result is still a well-formed instance of the schema.
func MutateInstance(r *rand.Rand, in *instance.Instance) *instance.Instance {
	pool := valuePool(in)
	out := instance.New(in.Cat)
	var copyInto func(dst *instance.SetVal, st *nr.SetType, tuples []*instance.Tuple)
	copyInto = func(dst *instance.SetVal, st *nr.SetType, tuples []*instance.Tuple) {
		for _, t := range tuples {
			if r.Float64() < 0.10 { // drop
				continue
			}
			nt := instance.NewTuple(st)
			for _, a := range st.Atoms {
				v := t.Get(a)
				switch {
				case r.Float64() < 0.06: // unset the slot
					continue
				case r.Float64() < 0.06: // replace the value
					nt.Put(a, pool[r.Intn(len(pool))])
				case v != nil:
					nt.Put(a, v)
				}
			}
			for _, f := range st.SetFields {
				ref, ok := t.Get(f).(*instance.SetRef)
				if !ok {
					continue
				}
				nt.Put(f, ref)
				child := st.Child(f)
				childOcc := out.EnsureSet(child, ref)
				if occ := in.Set(ref); occ != nil {
					copyInto(childOcc, child, occ.Tuples())
				}
			}
			dst.Insert(nt)
		}
		// Inject fresh tuples with random (possibly unset) atom slots.
		for n := r.Intn(3); n > 0; n-- {
			nt := instance.NewTuple(st)
			for _, a := range st.Atoms {
				if r.Float64() < 0.8 {
					nt.Put(a, pool[r.Intn(len(pool))])
				}
			}
			// Injected tuples leave nested set fields unset: a tuple
			// without an occurrence for a child set is a legal (and
			// adversarial) shape the engines must tolerate.
			dst.Insert(nt)
		}
	}
	for _, st := range in.Cat.TopLevel() {
		src := in.Top(st)
		copyInto(out.Top(st), st, src.Tuples())
	}
	return out
}

// valuePool gathers the constants occurring in the instance plus the
// adversarial set, so mutations both re-combine existing join keys
// (keeping joins firing) and introduce pathological strings.
func valuePool(in *instance.Instance) []instance.Value {
	seen := make(map[string]bool)
	var pool []instance.Value
	add := func(v instance.Value) {
		if c, ok := v.(instance.Const); ok && !seen[c.S] {
			seen[c.S] = true
			pool = append(pool, c)
		}
	}
	for _, s := range in.AllSets() {
		s.Each(func(t *instance.Tuple) bool {
			// Walk atoms in declared order: ranging over the Vals map
			// would randomize the pool order (and with it every "same
			// seed, same mutation" guarantee).
			for _, a := range t.Set.Atoms {
				if v := t.Get(a); v != nil {
					add(v)
				}
			}
			return true
		})
	}
	for _, s := range adversarialValues {
		add(instance.C(s))
	}
	return pool
}

// RandomScenario derives a fresh schema pair, constraint set,
// correspondences, mappings (via the Clio-style generator) and source
// instance from the rand stream. ok is false when the drawn
// correspondences don't generate (cliogen legitimately rejects some);
// callers just skip those draws.
func RandomScenario(r *rand.Rand, name string) (*Case, bool) {
	srcCat, srcNames := randomSourceSchema(r)
	tgtCat := randomTargetSchema(r)
	srcDeps := deps.NewSet(srcCat)
	// Random keys and refs exercise cliogen's constraint handling.
	for _, sn := range srcNames {
		if r.Float64() < 0.4 {
			st := srcCat.ByPath(nr.ParsePath(sn))
			_ = srcDeps.AddKey(sn, st.Atoms[0])
		}
	}
	if len(srcNames) >= 2 && r.Float64() < 0.4 {
		a, b := srcNames[r.Intn(len(srcNames))], srcNames[r.Intn(len(srcNames))]
		if a != b {
			sa, sb := srcCat.ByPath(nr.ParsePath(a)), srcCat.ByPath(nr.ParsePath(b))
			_ = srcDeps.AddRef("r0", a, []string{sa.Atoms[r.Intn(len(sa.Atoms))]}, b, []string{sb.Atoms[0]})
		}
	}
	tgtDeps := deps.NewSet(tgtCat)

	var corrs []cliogen.Corr
	for _, ts := range tgtCat.Sets {
		for _, ta := range ts.Atoms {
			if r.Float64() < 0.25 {
				continue // leave some target atoms uncovered
			}
			sn := srcNames[r.Intn(len(srcNames))]
			ss := srcCat.ByPath(nr.ParsePath(sn))
			corrs = append(corrs, cliogen.C(sn, ss.Atoms[r.Intn(len(ss.Atoms))], ts.Path.String(), ta))
		}
	}
	if len(corrs) == 0 {
		return nil, false
	}
	set, err := cliogen.Generate(srcDeps, tgtDeps, corrs)
	if err != nil || len(set.Mappings) == 0 {
		return nil, false
	}
	in := instance.New(srcCat)
	smallPool := []string{"v0", "v1", "v2", "", "héllo ☃"}
	for _, sn := range srcNames {
		st := srcCat.ByPath(nr.ParsePath(sn))
		for n := r.Intn(6); n > 0; n-- {
			t := instance.NewTuple(st)
			for _, a := range st.Atoms {
				if r.Float64() < 0.85 {
					t.Put(a, instance.C(smallPool[r.Intn(len(smallPool))]))
				}
			}
			in.InsertTop(st, t)
		}
	}
	return &Case{Name: name, Src: in, Ms: disambiguate(set)}, true
}

// randomSourceSchema draws a flat relational source schema: 1–3
// top-level sets with 1–4 string atoms each.
func randomSourceSchema(r *rand.Rand) (*nr.Catalog, []string) {
	n := 1 + r.Intn(3)
	var fields []nr.Field
	var names []string
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("S%d", i)
		names = append(names, name)
		var atoms []nr.Field
		for j := 0; j <= r.Intn(4); j++ {
			atoms = append(atoms, nr.F(fmt.Sprintf("a%d", j), nr.StringType()))
		}
		fields = append(fields, nr.F(name, nr.SetOf(nr.Record(atoms...))))
	}
	return nr.MustCatalog(nr.MustSchema("RndSrc", nr.Record(fields...))), names
}

// randomTargetSchema draws a nested target schema: 1–2 top-level sets,
// each with 1–3 atoms and (usually) one nested child set of 1–2 atoms,
// so the generated mappings carry grouping functions.
func randomTargetSchema(r *rand.Rand) *nr.Catalog {
	n := 1 + r.Intn(2)
	var fields []nr.Field
	for i := 0; i < n; i++ {
		var atoms []nr.Field
		for j := 0; j <= r.Intn(3); j++ {
			atoms = append(atoms, nr.F(fmt.Sprintf("b%d", j), nr.StringType()))
		}
		if r.Float64() < 0.7 {
			var cAtoms []nr.Field
			for j := 0; j <= r.Intn(2); j++ {
				cAtoms = append(cAtoms, nr.F(fmt.Sprintf("c%d", j), nr.StringType()))
			}
			atoms = append(atoms, nr.F(fmt.Sprintf("N%d", i), nr.SetOf(nr.Record(cAtoms...))))
		}
		fields = append(fields, nr.F(fmt.Sprintf("T%d", i), nr.SetOf(nr.Record(atoms...))))
	}
	return nr.MustCatalog(nr.MustSchema("RndTgt", nr.Record(fields...)))
}

// ChaseCases enumerates the chase oracle's inputs for a run: the base
// cases, a mutated variant of each, and cfg.Cases random scenarios.
func ChaseCases(cfg Config) []*Case {
	r := rand.New(rand.NewSource(cfg.Seed))
	cases := BaseCases(cfg.Scale)
	for _, c := range BaseCases(cfg.Scale) {
		cases = append(cases, &Case{
			Name: c.Name + "-mut",
			Src:  MutateInstance(r, c.Src),
			Ms:   c.Ms,
		})
	}
	drawn, attempts := 0, 0
	for drawn < cfg.Cases && attempts < cfg.Cases*20 {
		attempts++
		c, ok := RandomScenario(r, fmt.Sprintf("rnd-%d-%d", cfg.Seed, attempts))
		if !ok {
			continue
		}
		drawn++
		cases = append(cases, c)
	}
	return cases
}

// Regroup returns a twin of c whose grouping terms each take a random
// subset of Poss(), the empty one included, so that assignments share
// the SetIDs that cliogen's grouping by all of Poss() mints one each.
func Regroup(r *rand.Rand, c *Case) *Case {
	twin := &Case{Name: c.Name + "-regroup", Src: c.Src}
	for _, m := range c.Ms {
		for _, sk := range m.SKs {
			m = m.WithSK(sk.SK.Fn, randomArgs(r, m.Poss()))
		}
		twin.Ms = append(twin.Ms, m)
	}
	return twin
}

// randomArgs returns a random subset of poss in random order, possibly
// empty.
func randomArgs(r *rand.Rand, poss []mapping.Expr) []mapping.Expr {
	args := append([]mapping.Expr(nil), poss...)
	r.Shuffle(len(args), func(i, j int) { args[i], args[j] = args[j], args[i] })
	return args[:r.Intn(len(args)+1)]
}
