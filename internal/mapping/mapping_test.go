package mapping_test

import (
	"strings"
	"testing"

	"muse/internal/deps"
	"muse/internal/mapping"
	"muse/internal/nr"
	"muse/internal/scenarios"
)

func fig1(t *testing.T) *scenarios.Figure1 {
	t.Helper()
	return scenarios.NewFigure1(true)
}

func TestAnalyzeFig1(t *testing.T) {
	f := fig1(t)
	info := f.M2.MustAnalyze()
	if got := info.SrcVars["p"].Path.String(); got != "Projects" {
		t.Errorf("p ranges over %s", got)
	}
	if got := info.TgtVars["p1"].Path.String(); got != "Orgs.Projects" {
		t.Errorf("p1 ranges over %s", got)
	}
	if info.VarSet("zzz") != nil {
		t.Error("VarSet returns something for unbound variable")
	}
}

func TestDefaultSKIsG1(t *testing.T) {
	f := fig1(t)
	sk := f.M2.SKFor("SKProjects")
	if sk == nil {
		t.Fatal("m2 has no SKProjects assignment")
	}
	// G1: all 10 attributes of c, p, e.
	if len(sk.SK.Args) != 10 {
		t.Errorf("default grouping has %d args, want 10: %s", len(sk.SK.Args), sk.SK)
	}
	if sk.SK.Args[0] != mapping.E("c", "cid") {
		t.Errorf("first grouping arg = %s, want c.cid", sk.SK.Args[0])
	}
}

func TestPoss(t *testing.T) {
	f := fig1(t)
	poss := f.M2.Poss()
	if len(poss) != 10 {
		t.Fatalf("poss(m2) = %d attrs, want 10", len(poss))
	}
	want := []string{"c.cid", "c.cname", "c.location", "p.pid", "p.pname", "p.cid", "p.manager", "e.eid", "e.ename", "e.contact"}
	for i, e := range poss {
		if e.String() != want[i] {
			t.Errorf("poss[%d] = %s, want %s", i, e, want[i])
		}
	}
	if got := len(f.M1.Poss()); got != 3 {
		t.Errorf("poss(m1) = %d, want 3", got)
	}
}

func TestWithSK(t *testing.T) {
	f := fig1(t)
	d := f.M2.WithSK("SKProjects", []mapping.Expr{mapping.E("c", "cname")})
	if got := d.SKFor("SKProjects").SK.String(); got != "SKProjects(c.cname)" {
		t.Errorf("WithSK produced %s", got)
	}
	// Original untouched.
	if len(f.M2.SKFor("SKProjects").SK.Args) != 10 {
		t.Error("WithSK mutated the original mapping")
	}
	defer func() {
		if recover() == nil {
			t.Error("WithSK on unknown grouping function did not panic")
		}
	}()
	f.M2.WithSK("SKBogus", nil)
}

func TestPrintPaperNotation(t *testing.T) {
	f := fig1(t)
	out := f.M2.String()
	for _, want := range []string{
		"m2: for c in CompDB.Companies, p in CompDB.Projects, e in CompDB.Employees",
		"satisfy p.cid = c.cid and e.eid = p.manager",
		"exists o in OrgDB.Orgs, p1 in o.Projects, e1 in OrgDB.Employees",
		"satisfy p1.manager = e1.eid",
		"c.cname = o.oname",
		"o.Projects = SKProjects(c.cid,c.cname,c.location,p.pid,p.pname,p.cid,p.manager,e.eid,e.ename,e.contact)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("printed mapping missing %q:\n%s", want, out)
		}
	}
}

func TestValidationErrors(t *testing.T) {
	f := fig1(t)
	src, tgt := f.Src, f.Tgt
	cases := []struct {
		name string
		m    *mapping.Mapping
		want string
	}{
		{"unknown root set", &mapping.Mapping{Name: "x", Src: src, Tgt: tgt,
			For:    []mapping.Gen{mapping.FromRoot("c", "Nope")},
			Exists: []mapping.Gen{mapping.FromRoot("o", "Orgs")}}, "no set"},
		{"nested set bound from root", &mapping.Mapping{Name: "x", Src: src, Tgt: tgt,
			For:    []mapping.Gen{mapping.FromRoot("c", "Companies")},
			Exists: []mapping.Gen{mapping.FromRoot("p1", "Orgs.Projects")}}, "nested"},
		{"duplicate variable", &mapping.Mapping{Name: "x", Src: src, Tgt: tgt,
			For:    []mapping.Gen{mapping.FromRoot("c", "Companies"), mapping.FromRoot("c", "Projects")},
			Exists: []mapping.Gen{mapping.FromRoot("o", "Orgs")}}, "bound twice"},
		{"variable on both sides", &mapping.Mapping{Name: "x", Src: src, Tgt: tgt,
			For:    []mapping.Gen{mapping.FromRoot("c", "Companies")},
			Exists: []mapping.Gen{mapping.FromRoot("c", "Orgs")}}, "both sides"},
		{"unbound parent", &mapping.Mapping{Name: "x", Src: src, Tgt: tgt,
			For:    []mapping.Gen{mapping.FromRoot("c", "Companies")},
			Exists: []mapping.Gen{mapping.FromParent("p1", "o", "Projects"), mapping.FromRoot("o", "Orgs")}}, "not bound earlier"},
		{"bad parent field", &mapping.Mapping{Name: "x", Src: src, Tgt: tgt,
			For:    []mapping.Gen{mapping.FromRoot("c", "Companies")},
			Exists: []mapping.Gen{mapping.FromRoot("o", "Orgs"), mapping.FromParent("p1", "o", "Nope")}}, "no set field"},
		{"where references unknown attr", &mapping.Mapping{Name: "x", Src: src, Tgt: tgt,
			For:    []mapping.Gen{mapping.FromRoot("c", "Companies")},
			Exists: []mapping.Gen{mapping.FromRoot("o", "Orgs")},
			Where:  []mapping.Eq{{L: mapping.E("c", "bogus"), R: mapping.E("o", "oname")}}}, "no atomic attribute"},
		{"where sides swapped", &mapping.Mapping{Name: "x", Src: src, Tgt: tgt,
			For:    []mapping.Gen{mapping.FromRoot("c", "Companies")},
			Exists: []mapping.Gen{mapping.FromRoot("o", "Orgs")},
			Where:  []mapping.Eq{{L: mapping.E("o", "oname"), R: mapping.E("c", "cname")}}}, "not bound on this side"},
		{"or-group with one alternative", &mapping.Mapping{Name: "x", Src: src, Tgt: tgt,
			For:      []mapping.Gen{mapping.FromRoot("c", "Companies")},
			Exists:   []mapping.Gen{mapping.FromRoot("o", "Orgs")},
			OrGroups: []mapping.OrGroup{{Target: mapping.E("o", "oname"), Alts: []mapping.Expr{mapping.E("c", "cname")}}}}, "at least 2"},
		{"SK on non-set field", &mapping.Mapping{Name: "x", Src: src, Tgt: tgt,
			For:    []mapping.Gen{mapping.FromRoot("c", "Companies")},
			Exists: []mapping.Gen{mapping.FromRoot("o", "Orgs")},
			SKs:    []mapping.SKAssign{{Set: mapping.E("o", "oname"), SK: mapping.SKTerm{Fn: "SKX"}}}}, "no set field"},
		{"SK with target-side argument", &mapping.Mapping{Name: "x", Src: src, Tgt: tgt,
			For:    []mapping.Gen{mapping.FromRoot("c", "Companies")},
			Exists: []mapping.Gen{mapping.FromRoot("o", "Orgs")},
			SKs: []mapping.SKAssign{{Set: mapping.E("o", "Projects"),
				SK: mapping.SKTerm{Fn: "SKProjects", Args: []mapping.Expr{mapping.E("o", "oname")}}}}}, "not bound on this side"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.m.Analyze()
			if err == nil {
				t.Fatal("Analyze accepted invalid mapping")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestInterpretations(t *testing.T) {
	f4 := scenarios.NewFigure4()
	ma := f4.MA
	if !ma.Ambiguous() {
		t.Fatal("ma should be ambiguous")
	}
	if got := ma.AlternativeCount(); got != 4 {
		t.Errorf("AlternativeCount = %d, want 4", got)
	}
	alts := ma.Interpretations()
	if len(alts) != 4 {
		t.Fatalf("Interpretations returned %d mappings, want 4", len(alts))
	}
	for _, a := range alts {
		if a.Ambiguous() {
			t.Errorf("interpretation %s still ambiguous", a.Name)
		}
		if _, err := a.Analyze(); err != nil {
			t.Errorf("interpretation %s does not analyze: %v", a.Name, err)
		}
		// Each interpretation gains exactly the two selected equalities.
		if len(a.Where) != len(ma.Where)+2 {
			t.Errorf("interpretation %s has %d where equalities", a.Name, len(a.Where))
		}
	}
	// Names enumerate choices deterministically.
	if alts[0].Name != "ma[0,0]" || alts[3].Name != "ma[1,1]" {
		t.Errorf("interpretation names: %s ... %s", alts[0].Name, alts[3].Name)
	}
	// Specific selection: manager's name, tech lead's contact.
	sel := ma.Interpretation([]int{0, 1})
	found := 0
	for _, e := range sel.Where {
		if e.String() == "e1.ename = p1.supervisor" || e.String() == "e2.contact = p1.email" {
			found++
		}
	}
	if found != 2 {
		t.Errorf("Interpretation([0,1]) missing selected equalities:\n%s", sel)
	}
}

func TestMultiInterpretation(t *testing.T) {
	ma := scenarios.NewFigure4().MA
	ms, err := ma.MultiInterpretation([][]int{{0, 1}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("MultiInterpretation returned %d mappings, want 2", len(ms))
	}
	if _, err := ma.MultiInterpretation([][]int{{0}, {}}); err == nil {
		t.Error("empty selection accepted")
	}
	if _, err := ma.MultiInterpretation([][]int{{0}}); err == nil {
		t.Error("wrong selection arity accepted")
	}
	if _, err := ma.MultiInterpretation([][]int{{0}, {5}}); err == nil {
		t.Error("out-of-range selection accepted")
	}
}

func TestUnambiguousInterpretations(t *testing.T) {
	f := fig1(t)
	alts := f.M1.Interpretations()
	if len(alts) != 1 {
		t.Errorf("unambiguous mapping has %d interpretations, want 1", len(alts))
	}
	if f.M1.AlternativeCount() != 1 {
		t.Error("AlternativeCount for unambiguous mapping should be 1")
	}
}

func TestCloseUnderRefs(t *testing.T) {
	f := fig1(t)
	// The paper's example of a non-closed mapping: p and e without c.
	m := &mapping.Mapping{
		Name: "m", Src: f.Src, Tgt: f.Tgt,
		For: []mapping.Gen{
			mapping.FromRoot("p", "Projects"),
			mapping.FromRoot("e", "Employees"),
		},
		ForSat: []mapping.Eq{{L: mapping.E("e", "eid"), R: mapping.E("p", "manager")}},
		Exists: []mapping.Gen{mapping.FromRoot("e1", "Employees")},
		Where: []mapping.Eq{
			{L: mapping.E("e", "eid"), R: mapping.E("e1", "eid")},
			{L: mapping.E("e", "ename"), R: mapping.E("e1", "ename")},
		},
	}
	if m.ClosedUnderRefs(f.SrcDeps) {
		t.Fatal("mapping missing the f1 witness reported closed")
	}
	if err := m.CloseUnderRefs(f.SrcDeps); err != nil {
		t.Fatal(err)
	}
	if !m.ClosedUnderRefs(f.SrcDeps) {
		t.Error("mapping still not closed after CloseUnderRefs")
	}
	// Exactly one Companies generator was added, with the join equality.
	info := m.MustAnalyze()
	companies := 0
	for _, v := range info.SrcOrder {
		if info.SrcVars[v].Path.String() == "Companies" {
			companies++
		}
	}
	if companies != 1 {
		t.Errorf("%d Companies generators added, want 1:\n%s", companies, m)
	}
	if !strings.Contains(m.String(), "p.cid = ") {
		t.Errorf("join equality for f1 missing:\n%s", m)
	}
}

func TestCloseUnderRefsIdempotent(t *testing.T) {
	f := fig1(t)
	m := f.M2.Clone()
	before := m.String()
	if err := m.CloseUnderRefs(f.SrcDeps); err != nil {
		t.Fatal(err)
	}
	if m.String() != before {
		t.Errorf("closing an already-closed mapping changed it:\nbefore:\n%s\nafter:\n%s", before, m)
	}
}

func TestCloseUnderRefsCyclic(t *testing.T) {
	cat := nr.MustCatalog(nr.MustSchema("S", nr.Record(
		nr.F("A", nr.SetOf(nr.Record(nr.F("x", nr.IntType()), nr.F("y", nr.IntType())))),
		nr.F("B", nr.SetOf(nr.Record(nr.F("x", nr.IntType()), nr.F("y", nr.IntType())))),
	)))
	tgt := nr.MustCatalog(nr.MustSchema("T", nr.Record(
		nr.F("C", nr.SetOf(nr.Record(nr.F("x", nr.IntType())))),
	)))
	d := deps.NewSet(cat)
	// A cycle that keeps demanding new witnesses: A.x -> B.x on one
	// attribute and B.y -> A.y on the other, so each fresh variable
	// re-triggers the other constraint without ever being satisfied by
	// an existing one.
	d.MustAddRef("r1", "A", []string{"x"}, "B", []string{"x"})
	d.MustAddRef("r2", "B", []string{"y"}, "A", []string{"y"})
	m := &mapping.Mapping{
		Name: "m", Src: cat, Tgt: tgt,
		For:    []mapping.Gen{mapping.FromRoot("a", "A")},
		Exists: []mapping.Gen{mapping.FromRoot("c", "C")},
		Where:  []mapping.Eq{{L: mapping.E("a", "x"), R: mapping.E("c", "x")}},
	}
	if err := m.CloseUnderRefs(d); err == nil {
		t.Error("cyclic constraint chase should fail, not loop forever")
	}
}

func TestCloneIndependence(t *testing.T) {
	f := fig1(t)
	c := f.M2.Clone()
	c.Where = append(c.Where, mapping.Eq{L: mapping.E("c", "location"), R: mapping.E("o", "oname")})
	if len(f.M2.Where) == len(c.Where) {
		t.Error("Clone aliases the where clause")
	}
	c2 := f.M2.Clone()
	c2.SKs[0].SK.Args[0] = mapping.E("e", "contact")
	if f.M2.SKs[0].SK.Args[0] == c2.SKs[0].SK.Args[0] {
		t.Error("Clone aliases grouping arguments")
	}
}

func TestSetHelpers(t *testing.T) {
	f := fig1(t)
	if f.Set.ByName("m2") != f.M2 {
		t.Error("ByName(m2) wrong")
	}
	if f.Set.ByName("zz") != nil {
		t.Error("ByName(zz) should be nil")
	}
	if len(f.Set.Ambiguous()) != 0 {
		t.Error("Fig. 1 mappings are unambiguous")
	}
	f4 := scenarios.NewFigure4()
	if len(f4.Set.Ambiguous()) != 1 {
		t.Error("Fig. 4 set should have one ambiguous mapping")
	}
	// NewSet rejects mappings between other schemas.
	if _, err := mapping.NewSet(f.Src, f.Tgt, f4.MA); err == nil {
		t.Error("NewSet accepted a mapping between different schemas")
	}
}

func TestOrGroupString(t *testing.T) {
	ma := scenarios.NewFigure4().MA
	s := ma.OrGroups[0].String()
	want := "(e1.ename = p1.supervisor or e2.ename = p1.supervisor)"
	if s != want {
		t.Errorf("OrGroup.String() = %q, want %q", s, want)
	}
	if !strings.Contains(ma.String(), "or") {
		t.Error("ambiguous mapping printing lost the or-groups")
	}
}

func TestSKForSet(t *testing.T) {
	f := fig1(t)
	if f.M2.SKForSet(mapping.E("o", "Projects")) == nil {
		t.Error("SKForSet missed the Projects assignment")
	}
	if f.M2.SKForSet(mapping.E("o", "Nope")) != nil {
		t.Error("SKForSet invented an assignment")
	}
}

// TestFeedEqs: the where clause's implied equalities, one from each
// class's first feed to each later, different one, in where-clause
// order, with classes joined through the exists-satisfy clause.
func TestFeedEqs(t *testing.T) {
	if eqs := fig1(t).M2.FeedEqs(); len(eqs) != 0 {
		t.Errorf("m2 has one feed per target class, FeedEqs = %v", eqs)
	}
	E := mapping.E
	m := &mapping.Mapping{
		ExistsSat: []mapping.Eq{{L: E("p1", "manager"), R: E("e1", "eid")}},
		Where: []mapping.Eq{
			{L: E("c", "cname"), R: E("o", "oname")},
			{L: E("e", "eid"), R: E("e1", "eid")},
			{L: E("p", "manager"), R: E("p1", "manager")}, // joined to e1.eid
			{L: E("e", "ename"), R: E("o", "oname")},
			{L: E("c", "cname"), R: E("o", "oname")}, // repeats the first feed
			{L: E("p", "pname"), R: E("o", "oname")},
			{L: E("p", "manager"), R: E("e1", "eid")}, // repeats a later feed
		},
	}
	var got []string
	for _, q := range m.FeedEqs() {
		got = append(got, q.String())
	}
	want := []string{"e.eid = p.manager", "c.cname = e.ename", "c.cname = p.pname"}
	if strings.Join(got, "; ") != strings.Join(want, "; ") {
		t.Errorf("FeedEqs = %q, want %q", got, want)
	}
}
