package crosscheck

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"muse/internal/cliogen"
	"muse/internal/core"
	"muse/internal/deps"
	"muse/internal/instance"
	"muse/internal/mapping"
	"muse/internal/nr"
)

// CheckQuery runs the query oracle, the decide leg: every verdict a
// wizard's retrieval reaches (a refutation on the tableau, a scan that
// finds no witness, or its witness) is compared with a brute-force scan
// of the retrieval's pattern.
func CheckQuery(cfg Config) []Failure {
	return checkDecide(cfg.withDefaults())
}

// checkDecide is the query family's decide leg. Muse-G refutes a probe
// retrieval on its tableau from the instance's unique attributes, and
// otherwise scans its mapping's assignment table for the witness pair
// (core.DecideProbe); Muse-D refutes its one-copy retrieval and
// otherwise streams the assignments for the first witness row
// (core.DecideChoice). The leg checks every verdict against
// bruteWitness over the same pattern, which shares no table-building or
// scanning code with them: a refuted retrieval has no witness, and any
// other finds exactly the least one in the witness order (DESIGN.md §7).
// Inputs come from the leg's own rand streams: random scenarios under
// random keys and FDs, the multi-feed twins of their mappings (each on
// its feed variant too), and random scenarios over a source with a
// nested set and a set under two roles, on the scenario's instance and
// on MutateInstance copies, which bring unset slots, replaced values
// and FD violations. Each probe draws its probed, confirmed and
// decided-out attributes from poss, and sometimes more attributes its
// copies must differ on, which puts it outside the decided shape.
func checkDecide(cfg Config) []Failure {
	l := &decideLeg{seed: cfg.Seed, queries: cfg.Queries}
	r := rand.New(rand.NewSource(cfg.Seed*37 + 11))
	for drawn, attempts := 0, 0; drawn < cfg.Cases && attempts < 20*cfg.Cases; attempts++ {
		c, ok := RandomScenario(r, fmt.Sprintf("rnd-%d-%d", cfg.Seed, attempts))
		if !ok {
			continue
		}
		drawn++
		l.scenario(r, c, true)
	}
	// Scenarios over a source of both shapes random ones lack draw from
	// a stream of their own, so the flat scenarios stay as they were.
	rs := rand.New(rand.NewSource(cfg.Seed*37 + 12))
	for drawn, attempts := 0, 0; drawn < cfg.Cases && attempts < 20*cfg.Cases; attempts++ {
		c, ok := randomShapedScenario(rs, fmt.Sprintf("shaped-%d-%d", cfg.Seed, attempts))
		if !ok {
			continue
		}
		drawn++
		l.scenario(rs, c, false)
	}
	cfg.logf("  query decide: %d probes on %d mappings, %d refuted, %d decided empty, %d with a witness, %d outside the decided shape (%d with a witness, %d spent); Muse-D: %d retrievals on %d ambiguous mappings, %d of them refuted, %d with a witness",
		l.probes, l.mappings, l.refuted, l.empty, l.witness, l.outside, l.outsideWitness, l.spent, l.choices, l.ambiguous, l.choicesRefuted, l.choicesWitness)
	return l.fails
}

// decideLeg accumulates the decide leg's failures and counts.
type decideLeg struct {
	seed                                               int64
	queries                                            int
	fails                                              []Failure
	probes, refuted, empty, witness, mappings          int
	outside, outsideWitness, spent                     int
	choices, choicesRefuted, choicesWitness, ambiguous int
}

// scenario checks the Muse-G probes of c's mappings, and of their
// multi-feed twins when feeds is set (feedVariant copies flat instances
// only), and the Muse-D retrievals of its ambiguous mappings, under
// constraints drawn from r, on c's instance and two mutated copies.
func (l *decideLeg) scenario(r *rand.Rand, c *Case, feeds bool) {
	d := constraints(r, c.Deps, c.Src)
	base := []*instance.Instance{c.Src, MutateInstance(r, c.Src), MutateInstance(r, c.Src)}
	type input struct {
		m   *mapping.Mapping
		ins []*instance.Instance
	}
	var inputs []input
	for _, m := range c.Ms {
		inputs = append(inputs, input{m, base})
		if !feeds {
			continue
		}
		if t := multiFeed(r, m); t != nil {
			inputs = append(inputs, input{t, slices.Concat(base, []*instance.Instance{feedVariant(r, t, c.Src)})})
		}
	}
	for _, in := range inputs {
		poss := in.m.Poss()
		if len(poss) == 0 {
			continue
		}
		l.mappings++
		for _, src := range in.ins {
			for k := 0; k < l.queries; k++ {
				confirmed, out, differ := probePattern(r, poss)
				var dc core.ProbeDecision
				ok := true
				err := guard(func() (err error) {
					dc, ok, err = core.DecideProbe(in.m, d, src, confirmed, out, differ)
					return err
				})
				if !ok && err == nil {
					continue
				}
				l.probes++
				switch {
				case dc.Refuted:
					l.refuted++
				case !dc.Shaped:
					l.outside++
					l.outsideWitness += count(dc.Rows != nil)
					l.spent += count(dc.Spent)
				case dc.Rows != nil:
					l.witness++
				default:
					l.empty++
				}
				l.check(fmt.Sprintf("decide/%s/%s/p%d", c.Name, in.m.Name, k), in.m, src, dc, err,
					fmt.Sprintf(" (probe %s, confirmed %s, decided out %s, differ %s)", differ[0], exprs(confirmed), exprs(out), exprs(differ)))
			}
		}
	}
	for _, m := range c.Ambiguous {
		l.ambiguous++
		for _, src := range base {
			var dc core.ProbeDecision
			err := guard(func() (err error) { dc, err = core.DecideChoice(m, d, src); return err })
			l.choices++
			l.choicesRefuted += count(dc.Refuted)
			l.choicesWitness += count(dc.Rows != nil)
			l.check(fmt.Sprintf("decide/%s/%s/choice", c.Name, m.Name), m, src, dc, err, "")
		}
	}
}

// check records a failure when retrieving m's example failed, or when
// dc's verdict disagrees with bruteWitness over src: a refuted
// retrieval has no witness, and any other has exactly dc.Rows, unless
// its scan spent its budget.
func (l *decideLeg) check(name string, m *mapping.Mapping, src *instance.Instance, dc core.ProbeDecision, err error, pattern string) {
	var detail string
	switch want := bruteWitness(m, src, dc); {
	case err != nil:
		detail = fmt.Sprintf("the retrieval failed: %v", err)
	case dc.Refuted && want != nil:
		detail = fmt.Sprintf("the tableau refuted the retrieval, but the brute-force scan finds the witness %s", rowsString(want))
	case !dc.Refuted && !dc.Spent && !sameRows(dc.Rows, want):
		detail = fmt.Sprintf("the scan's witness is %s, the brute-force scan's %s", rowsString(dc.Rows), rowsString(want))
	}
	if detail == "" {
		return
	}
	repro := formatMappingSet(&mapping.Set{Mappings: []*mapping.Mapping{m}}) +
		fmt.Sprintf("--- pattern ---\nagree %v\ndiffer %v\n--- instance ---\n%s", dc.Classes, dc.Differ, src)
	l.fails = append(l.fails, Failure{Oracle: "query", Case: name, Seed: l.seed, Detail: detail + pattern, Repro: repro})
}

// bruteWitness is the reference for a retrieval of m's example with
// dc's pattern: it enumerates m's assignments over src by nested loops
// (naiveEnumerate, the chase's firing order), keeps those that set
// every atom, and tests them in the witness order. For a one-copy
// pattern the witness is the first row that realizes it; for two the
// valid pair whose later row is least, then whose earlier row is least,
// copy 1 taking the earlier row when both fit. Nil when there is none.
func bruteWitness(m *mapping.Mapping, src *instance.Instance, dc core.ProbeDecision) [][]*instance.Tuple {
	info, err := m.Analyze()
	if err != nil {
		return nil
	}
	copies := 1
	pos := make(map[string]int, len(m.For))
	for i, g := range m.For {
		pos[g.Var] = i
	}
	for _, cl := range dc.Classes {
		for _, s := range cl {
			copies = max(copies, s.Copy)
		}
	}
	var rows [][]*instance.Tuple
	asg := make(map[string]*instance.Tuple, len(m.For))
	_ = naiveEnumerate(src, m, info, 0, asg, func() error {
		row := make([]*instance.Tuple, len(m.For))
		for i, g := range m.For {
			row[i] = asg[g.Var]
			for _, a := range info.SrcVars[g.Var].Atoms {
				if row[i].Get(a) == nil {
					return nil
				}
			}
		}
		rows = append(rows, row)
		return nil
	})
	valid := func(cand [][]*instance.Tuple) bool {
		val := func(s core.Slot) instance.Value { return cand[s.Copy-1][pos[s.Atom.Var]].Get(s.Atom.Attr) }
		for _, cl := range dc.Classes {
			for _, s := range cl[1:] {
				if !instance.SameValue(val(cl[0]), val(s)) {
					return false
				}
			}
		}
		for _, p := range dc.Differ {
			if instance.SameValue(val(p[0]), val(p[1])) {
				return false
			}
		}
		return true
	}
	for b := range rows {
		if copies == 1 {
			if cand := [][]*instance.Tuple{rows[b]}; valid(cand) {
				return cand
			}
			continue
		}
		for a := range b {
			for _, cand := range [][][]*instance.Tuple{{rows[a], rows[b]}, {rows[b], rows[a]}} {
				if valid(cand) {
					return cand
				}
			}
		}
	}
	return nil
}

// sameRows reports whether two witnesses hold the same tuples.
func sameRows(a, b [][]*instance.Tuple) bool {
	return slices.EqualFunc(a, b, func(x, y []*instance.Tuple) bool { return slices.Equal(x, y) })
}

// rowsString renders a witness, one row per copy.
func rowsString(rows [][]*instance.Tuple) string {
	if rows == nil {
		return "none"
	}
	var b strings.Builder
	for c, row := range rows {
		fmt.Fprintf(&b, "\n  copy %d:", c+1)
		for _, t := range row {
			fmt.Fprintf(&b, " %s", t.Key())
		}
	}
	return b.String()
}

// count is 1 for true and 0 for false.
func count(b bool) int {
	if b {
		return 1
	}
	return 0
}

// randomShapedScenario draws a scenario over a fixed source with the
// two shapes random sources lack. S0 (a0, a1) nests C (c0, c1, c2), and
// two references from one attribute of S0 into S1 (b0, b1, b2) reach S1
// under two roles, so the mappings that read it are ambiguous (Sec.
// IV). It draws correspondences into a random nested target, from C as
// often as from S0 and S1 together, and a small instance whose S1
// mostly holds b0 unique without a key saying so, and whose other
// values come from a pool of two, so that tuples nested under
// different parents often agree. ok is false when the correspondences
// don't generate.
func randomShapedScenario(r *rand.Rand, name string) (*Case, bool) {
	str := nr.StringType()
	cat := nr.MustCatalog(nr.MustSchema("ShapedSrc", nr.Record(
		nr.F("S0", nr.SetOf(nr.Record(nr.F("a0", str), nr.F("a1", str),
			nr.F("C", nr.SetOf(nr.Record(nr.F("c0", str), nr.F("c1", str), nr.F("c2", str))))))),
		nr.F("S1", nr.SetOf(nr.Record(nr.F("b0", str), nr.F("b1", str), nr.F("b2", str)))),
	)))
	s0, ch, s1 := cat.ByPath(nr.ParsePath("S0")), cat.ByPath(nr.ParsePath("S0.C")), cat.ByPath(nr.ParsePath("S1"))
	src := deps.NewSet(cat)
	from := []string{s0.Atoms[r.Intn(2)]}
	_ = src.AddRef("r0", "S0", from, "S1", []string{"b0"})
	_ = src.AddRef("r1", "S0", from, "S1", []string{"b0"})
	tgt := randomTargetSchema(r)
	var corrs []cliogen.Corr
	for _, ts := range tgt.Sets {
		for _, ta := range ts.Atoms {
			st := [...]*nr.SetType{s0, ch, ch, s1}[r.Intn(4)]
			corrs = append(corrs, cliogen.C(st.Path.String(), st.Atoms[r.Intn(len(st.Atoms))], ts.Path.String(), ta))
		}
	}
	set, err := cliogen.Generate(src, deps.NewSet(tgt), corrs)
	if err != nil || len(set.Mappings) == 0 {
		return nil, false
	}
	in := instance.New(cat)
	keys := 1 + r.Intn(4)
	key := func(k int) instance.Value { return instance.C("k" + strconv.Itoa(k)) }
	pooled := func(st *nr.SetType) *instance.Tuple {
		t := instance.NewTuple(st)
		for _, a := range st.Atoms {
			if r.Float64() < 0.9 {
				t.Put(a, instance.C([...]string{"v0", "v1"}[r.Intn(2)]))
			}
		}
		return t
	}
	for i := range keys {
		if r.Float64() < 0.2 {
			i = r.Intn(keys)
		}
		in.InsertTop(s1, pooled(s1).Put("b0", key(i)))
	}
	for i := 1 + r.Intn(4); i >= 0; i-- {
		ref := instance.NewSetRef("SKC", key(i))
		in.InsertTop(s0, instance.NewTuple(s0).Put("a0", key(r.Intn(keys))).Put("a1", key(r.Intn(keys))).Put("C", ref))
		in.EnsureSet(ch, ref)
		for n := 1 + r.Intn(3); n > 0; n-- {
			in.Insert(ch, ref, pooled(ch))
		}
	}
	return generatedCase(name, in, src, set), true
}

// generatedCase is the case of set's mappings over in.
func generatedCase(name string, in *instance.Instance, src *deps.Set, set *mapping.Set) *Case {
	c := &Case{Name: name, Src: in, Ms: disambiguate(set), Deps: src}
	for _, m := range set.Mappings {
		if m.Ambiguous() {
			c.Ambiguous = append(c.Ambiguous, m)
		}
	}
	return c
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
