package cliogen_test

import (
	"strings"
	"testing"

	"muse/internal/chase"
	"muse/internal/cliogen"
	"muse/internal/core"
	"muse/internal/deps"
	"muse/internal/designer"
	"muse/internal/homo"
	"muse/internal/mapping"
	"muse/internal/scenarios"
)

// fig1Corrs are the arrows of Fig. 1.
func fig1Corrs() []cliogen.Corr {
	return []cliogen.Corr{
		cliogen.C("Companies", "cname", "Orgs", "oname"),
		cliogen.C("Projects", "pname", "Orgs.Projects", "pname"),
		cliogen.C("Employees", "eid", "Employees", "eid"),
		cliogen.C("Employees", "ename", "Employees", "ename"),
	}
}

// TestGenerateFig1 regenerates the three mappings of Fig. 1 from the
// schemas, constraints and arrows alone.
func TestGenerateFig1(t *testing.T) {
	f := scenarios.NewFigure1(false)
	set, err := cliogen.Generate(f.SrcDeps, f.TgtDeps, fig1Corrs())
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Mappings) != 3 {
		for _, m := range set.Mappings {
			t.Logf("generated:\n%s\n", m)
		}
		t.Fatalf("generated %d mappings, want 3 (m1, m2, m3)", len(set.Mappings))
	}
	// Chasing the Fig. 2 source with the generated set must be
	// homomorphically equivalent to chasing with the hand-written
	// {m1, m2, m3} (the hand-written m2 uses the same G1 default).
	got := chase.MustChase(f.Source, set.Mappings...)
	want := chase.MustChase(f.Source, f.M1, f.M2, f.M3)
	if !homo.Equivalent(got, want) {
		t.Errorf("generated mappings not equivalent to Fig. 1 mappings:\ngot:\n%s\nwant:\n%s", got, want)
	}
	if len(set.Ambiguous()) != 0 {
		t.Error("Fig. 1 arrows should generate no ambiguity")
	}
}

// TestGenerateFig4Ambiguity regenerates the ambiguous mapping of
// Fig. 4: two referential roles of Employees make the ename and
// contact arrows ambiguous.
func TestGenerateFig4Ambiguity(t *testing.T) {
	f := scenarios.NewFigure4()
	td := deps.NewSet(f.Tgt)
	corrs := []cliogen.Corr{
		cliogen.C("Projects", "pname", "Projects", "pname"),
		cliogen.C("Employees", "ename", "Projects", "supervisor"),
		cliogen.C("Employees", "contact", "Projects", "email"),
	}
	set, err := cliogen.Generate(f.SrcDeps, td, corrs)
	if err != nil {
		t.Fatal(err)
	}
	amb := set.Ambiguous()
	if len(amb) != 1 {
		t.Fatalf("generated %d ambiguous mappings, want 1", len(amb))
	}
	ma := amb[0]
	if got := ma.AlternativeCount(); got != 4 {
		t.Errorf("ambiguous mapping encodes %d alternatives, want 4", got)
	}
	if len(ma.OrGroups) != 2 {
		t.Fatalf("%d or-groups, want 2 (supervisor, email)", len(ma.OrGroups))
	}
	// The generated ambiguity is exactly Fig. 4's: each group offers
	// the manager's and the tech lead's attribute.
	for _, g := range ma.OrGroups {
		if len(g.Alts) != 2 {
			t.Errorf("or-group %s has %d alternatives, want 2", g.Target, len(g.Alts))
		}
	}
	// And Muse-D can disambiguate it end to end.
	w := core.NewDisambiguationWizard(f.SrcDeps, f.Source)
	oracle := &designer.ChoiceOracle{Selections: [][]int{{0}, {0}}}
	out, err := w.Disambiguate(ma, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Ambiguous() {
		t.Error("generated ambiguous mapping cannot be disambiguated")
	}
}

// TestGeneratedMappingsClosedUnderRefs: every generated mapping is
// closed under the source referential constraints (Sec. II).
func TestGeneratedMappingsClosedUnderRefs(t *testing.T) {
	f := scenarios.NewFigure1(false)
	set, err := cliogen.Generate(f.SrcDeps, f.TgtDeps, fig1Corrs())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range set.Mappings {
		if !closedUnderRefs(m, f.SrcDeps) {
			t.Errorf("generated mapping %s is not closed under referential constraints:\n%s", m.Name, m)
		}
	}
}

// TestGeneratedDefaultGroupingIsG1: nested target sets receive the
// full-attribute default grouping.
func TestGeneratedDefaultGroupingIsG1(t *testing.T) {
	f := scenarios.NewFigure1(false)
	set, err := cliogen.Generate(f.SrcDeps, f.TgtDeps, fig1Corrs())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range set.Mappings {
		if sk := m.SKFor("SKProjects"); sk != nil && len(m.For) == 3 {
			found = true
			if len(sk.SK.Args) != len(m.Poss()) {
				t.Errorf("default grouping has %d args, want %d (G1):\n%s", len(sk.SK.Args), len(m.Poss()), m)
			}
		}
	}
	if !found {
		t.Error("no generated mapping populates Orgs.Projects from the joined tableau")
	}
}

// TestTargetReferentialConstraints: a target-side constraint adds the
// exists-satisfy join (p1.manager = e1.eid in Fig. 1's m2).
func TestTargetReferentialConstraints(t *testing.T) {
	f := scenarios.NewFigure1(false)
	td := deps.NewSet(f.Tgt)
	td.MustAddRef("tf", "Orgs.Projects", []string{"manager"}, "Employees", []string{"eid"})
	set, err := cliogen.Generate(f.SrcDeps, td, fig1Corrs())
	if err != nil {
		t.Fatal(err)
	}
	var m2 string
	for _, m := range set.Mappings {
		if len(m.For) == 3 && len(m.Exists) >= 3 {
			m2 = m.String()
		}
	}
	if !strings.Contains(m2, ".manager = ") {
		t.Errorf("target constraint did not produce the exists-satisfy join:\n%s", m2)
	}
}

// TestValidationOfCorrs: bad arrows are rejected with context.
func TestValidationOfCorrs(t *testing.T) {
	f := scenarios.NewFigure1(false)
	if _, err := cliogen.Generate(f.SrcDeps, f.TgtDeps, []cliogen.Corr{
		cliogen.C("Nope", "x", "Orgs", "oname"),
	}); err == nil {
		t.Error("unknown source set accepted")
	}
	if _, err := cliogen.Generate(f.SrcDeps, f.TgtDeps, []cliogen.Corr{
		cliogen.C("Companies", "cname", "Orgs", "bogus"),
	}); err == nil {
		t.Error("unknown target attribute accepted")
	}
}

// TestEmptyCorrs yields an empty mapping set.
func TestEmptyCorrs(t *testing.T) {
	f := scenarios.NewFigure1(false)
	set, err := cliogen.Generate(f.SrcDeps, f.TgtDeps, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Mappings) != 0 {
		t.Errorf("no arrows generated %d mappings", len(set.Mappings))
	}
}

// closedUnderRefs reports whether every for-variable's referential
// constraints are witnessed inside m's for clause: some variable over
// the referenced set is joined to it through the satisfy equalities.
func closedUnderRefs(m *mapping.Mapping, src *deps.Set) bool {
	info := m.MustAnalyze()
	eq := mapping.NewClasses(m.ForSat)
	for _, v := range info.SrcOrder {
	refs:
		for _, r := range src.RefsOf(info.SrcVars[v]) {
			for _, w := range info.SrcOrder {
				if info.SrcVars[w].Path.Equal(r.ToSet) && eq.Joined(v, w, r) {
					continue refs
				}
			}
			return false
		}
	}
	return true
}
