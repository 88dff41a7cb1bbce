package core_test

import (
	"testing"

	"muse/internal/chase"
	"muse/internal/core"
	"muse/internal/designer"
	"muse/internal/homo"
	"muse/internal/mapping"
	"muse/internal/scenarios"
)

// TestGroupLess: the designer previously settled on SK(c.cname) and
// now wants SK(c.cname, c.location) — the wizard probes only the
// remaining attributes and adds location.
func TestGroupLess(t *testing.T) {
	f := scenarios.NewFigure1(false)
	m := f.M2.WithSK("SKProjects", []mapping.Expr{mapping.E("c", "cname")})
	desired := []mapping.Expr{mapping.E("c", "cname"), mapping.E("c", "location")}
	w := core.NewGroupingWizard(f.SrcDeps, nil)
	oracle := designer.NewGroupingOracle("SKProjects", desired)
	rec := &recordingDesigner{inner: oracle}

	out, err := w.GroupLess(m, "SKProjects", rec)
	if err != nil {
		t.Fatal(err)
	}
	want := chase.MustChase(f.Source, f.M2.WithSK("SKProjects", desired))
	got := chase.MustChase(f.Source, out)
	if !homo.Equivalent(want, got) {
		t.Errorf("GroupLess designed %s, not equivalent to SK(cname, location)", out.SKFor("SKProjects").SK)
	}
	// cname itself is never re-probed.
	for _, q := range rec.questions {
		if q.Probe.String() == "c.cname" {
			t.Error("GroupLess re-probed an existing argument")
		}
	}
}

// TestGroupMore: the designer previously settled on SK(c.cname,
// c.location) and now wants to merge down to SK(c.cname).
func TestGroupMore(t *testing.T) {
	f := scenarios.NewFigure1(false)
	m := f.M2.WithSK("SKProjects", []mapping.Expr{mapping.E("c", "cname"), mapping.E("c", "location")})
	desired := []mapping.Expr{mapping.E("c", "cname")}
	w := core.NewGroupingWizard(f.SrcDeps, nil)
	oracle := designer.NewGroupingOracle("SKProjects", desired)
	rec := &recordingDesigner{inner: oracle}

	out, err := w.GroupMore(m, "SKProjects", rec)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.SKFor("SKProjects").SK.String(); got != "SKProjects(c.cname)" {
		t.Errorf("GroupMore designed %s, want SKProjects(c.cname)", got)
	}
	// Exactly two questions: one per current argument.
	if len(rec.questions) != 2 {
		t.Errorf("GroupMore posed %d questions, want 2", len(rec.questions))
	}
	for _, q := range rec.questions {
		if q.Kind != core.QuestionGroupMore {
			t.Error("GroupMore posed a non-incremental question")
		}
	}
}

// TestGroupMoreDropsRedundantSilently: an argument implied by the
// others (via a key) is dropped without a question.
func TestGroupMoreDropsRedundantSilently(t *testing.T) {
	f := scenarios.NewFigure1(true) // cid is the key of Companies
	m := f.M2.WithSK("SKProjects", []mapping.Expr{mapping.E("c", "cid"), mapping.E("c", "cname")})
	w := core.NewGroupingWizard(f.SrcDeps, nil)
	// The designer keeps cid; cname is redundant given the key.
	oracle := designer.NewGroupingOracle("SKProjects", []mapping.Expr{mapping.E("c", "cid")})
	rec := &recordingDesigner{inner: oracle}
	out, err := w.GroupMore(m, "SKProjects", rec)
	if err != nil {
		t.Fatal(err)
	}
	// cname's probe is unconstructible (the key forces it to agree), so
	// it is dropped silently; only cid is asked about.
	for _, q := range rec.questions {
		if q.Probe.String() == "c.cname" {
			t.Error("redundant argument was probed")
		}
	}
	want := chase.MustChase(f.Source, f.M2.WithSK("SKProjects", []mapping.Expr{mapping.E("c", "cid")}))
	got := chase.MustChase(f.Source, out)
	if !homo.Equivalent(want, got) {
		t.Errorf("GroupMore result %s not equivalent to SK(cid)", out.SKFor("SKProjects").SK)
	}
}

// TestSessionPipeline: Muse-D then Muse-G over a mixed mapping set
// (Sec. V).
func TestSessionPipeline(t *testing.T) {
	f4 := scenarios.NewFigure4()
	s := core.NewSession(f4.SrcDeps, f4.Source)
	dd := &designer.ChoiceOracle{Selections: [][]int{{0}, {0}}}
	gd := &designer.GroupingOracle{Desired: map[string][]mapping.Expr{}}

	out, err := s.Run(f4.Set, gd, dd)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Ambiguous()) != 0 {
		t.Error("session output still ambiguous")
	}
	if len(out.Mappings) != 1 {
		t.Fatalf("session produced %d mappings, want 1", len(out.Mappings))
	}
	// The Fig. 4 target has no nested sets, so Muse-G asks nothing.
	if s.Grouping.Stats.TotalQuestions() != 0 {
		t.Error("grouping questions asked for a flat target")
	}
	if s.Disambiguation.Stats.TotalQuestions() != 1 {
		t.Error("expected exactly one disambiguation question")
	}
}

// TestSessionWithGrouping: a session over the Fig. 1 scenario designs
// the grouping of m2.
func TestSessionWithGrouping(t *testing.T) {
	f := scenarios.NewFigure1(false)
	s := core.NewSession(f.SrcDeps, f.Source)
	gd := &designer.GroupingOracle{Desired: map[string][]mapping.Expr{
		"SKProjects": {mapping.E("c", "cname")},
	}}
	out, err := s.Run(f.Set, gd, nil)
	if err != nil {
		t.Fatal(err)
	}
	m2 := out.ByName("m2")
	if m2 == nil {
		t.Fatal("m2 lost in session")
	}
	if got := m2.SKFor("SKProjects").SK.String(); got != "SKProjects(c.cname)" {
		t.Errorf("session designed %s", got)
	}
}

// fixedAnswer answers every grouping question with the same scenario
// number, in range or not.
type fixedAnswer int

func (a fixedAnswer) ChooseScenario(*core.GroupingQuestion) (int, error) { return int(a), nil }

// TestGroupMoreRejectsOutOfRangeAnswer: group-more questions take the
// same answers as every other Muse-G question, 1 or 2.
func TestGroupMoreRejectsOutOfRangeAnswer(t *testing.T) {
	f := scenarios.NewFigure1(false)
	m := f.M2.WithSK("SKProjects", []mapping.Expr{mapping.E("c", "cname"), mapping.E("c", "location")})
	for _, ans := range []fixedAnswer{0, 3} {
		w := core.NewGroupingWizard(f.SrcDeps, nil)
		if _, err := w.GroupMore(m, "SKProjects", ans); err == nil {
			t.Errorf("GroupMore accepted answer %d", ans)
		}
	}
}

// TestGroupLessInstanceOnly: in instance-only mode, GroupLess skips an
// attribute the confirmed ones determine on the real instance, as
// DesignSK does (TestInstanceOnlyMode).
func TestGroupLessInstanceOnly(t *testing.T) {
	f := scenarios.NewFigure1(false)
	// location follows cname in this instance (IBM→NY, SBC→SF).
	f.Source = newCompInstance(f, [][3]string{
		{"11", "IBM", "NY"}, {"12", "IBM", "NY"}, {"14", "SBC", "SF"},
	})
	m := f.M2.WithSK("SKProjects", []mapping.Expr{mapping.E("c", "cname")})
	w := core.NewGroupingWizard(f.SrcDeps, f.Source)
	w.InstanceOnly = true
	rec := &recordingDesigner{inner: fixedAnswer(2)}
	if _, err := w.GroupLess(m, "SKProjects", rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.questions) == 0 {
		t.Fatal("GroupLess posed no question")
	}
	for _, q := range rec.questions {
		if q.Probe.String() == "c.location" {
			t.Error("instance-only GroupLess probed a data-implied attribute")
		}
	}
}
