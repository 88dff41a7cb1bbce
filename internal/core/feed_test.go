package core_test

import (
	"testing"

	"muse/internal/core"
	"muse/internal/designer"
	"muse/internal/homo"
	"muse/internal/mapping"
)

// multiFeedGrants is the Grants fixture with o.oname fed by both
// c.cname and g.gid: the chase fires only the assignments on which the
// two agree, so each example copy must be such an assignment.
func multiFeedGrants() (*grantsScenario, *mapping.Mapping) {
	f := newGrantsScenario()
	m := f.m.Clone()
	m.Where = append(m.Where, mapping.Eq{L: mapping.E("g", "gid"), R: mapping.E("o", "oname")})
	return f, m
}

// distinctScenarios fails t for every recorded question whose two
// scenarios are isomorphic.
func distinctScenarios(t *testing.T, rec *recordingDesigner) {
	t.Helper()
	for _, q := range rec.questions {
		if homo.Isomorphic(q.Scenario1, q.Scenario2) {
			t.Errorf("question on %s probing %s shows coinciding scenarios", q.SK, q.Probe)
		}
	}
}

// TestDesignSKMultiFeed: Muse-G reaches the designer's grouping on a
// multi-feed mapping. The feed equality c.cname = g.gid joins two
// attributes of poss, so one probe decides both.
func TestDesignSKMultiFeed(t *testing.T) {
	f, m := multiFeedGrants()
	E := mapping.E
	for _, fn := range []string{"SKProjects", "SKGrants"} {
		for _, tc := range []struct {
			desired []mapping.Expr
			want    string
		}{
			{m.Poss(), "(c.cid,c.cname,p.pname,g.amount)"},
			{[]mapping.Expr{E("c", "cid")}, "(c.cid)"},
			{nil, "()"},
		} {
			w := core.NewGroupingWizard(f.srcDeps, nil)
			rec := &recordingDesigner{inner: designer.NewGroupingOracle(fn, tc.desired)}
			out, err := w.DesignSK(m, fn, rec)
			if err != nil {
				t.Fatal(err)
			}
			if got := out.SKFor(fn).SK.String(); got != fn+tc.want {
				t.Errorf("%s for %v designed as %s, want %s%s", fn, tc.desired, got, fn, tc.want)
			}
			if len(rec.questions) != 4 {
				t.Errorf("%s for %v asked %d questions, want one per class, 4", fn, tc.desired, len(rec.questions))
			}
			distinctScenarios(t, rec)
		}
	}
}

// TestGroupMoreMultiFeed: GroupMore keeps the arguments a designer who
// wants all of poss keeps, dropping silently only those the others
// force to agree.
func TestGroupMoreMultiFeed(t *testing.T) {
	f, m := multiFeedGrants()
	w := core.NewGroupingWizard(f.srcDeps, nil)
	rec := &recordingDesigner{inner: designer.NewGroupingOracle("SKProjects", m.Poss())}
	out, err := w.GroupMore(m, "SKProjects", rec)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := out.SKFor("SKProjects").SK.String(), "SKProjects(p.cid,g.gid,g.pname,g.amount)"; got != want {
		t.Errorf("GroupMore designed %s, want %s", got, want)
	}
	if len(rec.questions) != 4 {
		t.Errorf("GroupMore asked %d questions, want 4", len(rec.questions))
	}
	distinctScenarios(t, rec)
}
