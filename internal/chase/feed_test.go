package chase_test

import (
	"testing"

	"muse/internal/chase"
	"muse/internal/instance"
	"muse/internal/mapping"
	"muse/internal/nr"
)

// TestChaseMultiFeed: a where clause that feeds the target atom t.u
// from both r.a and r.b implies r.a = r.b (mapping.FeedEqs). The chase
// fires only the assignments on which the two feeds agree, and their
// tuple carries the agreed value.
func TestChaseMultiFeed(t *testing.T) {
	src := nr.MustCatalog(nr.MustSchema("S", nr.Record(
		nr.F("R", nr.SetOf(nr.Record(nr.F("a", nr.StringType()), nr.F("b", nr.StringType())))),
	)))
	tgt := nr.MustCatalog(nr.MustSchema("T", nr.Record(
		nr.F("T", nr.SetOf(nr.Record(nr.F("u", nr.StringType())))),
	)))
	m := &mapping.Mapping{
		Name: "m", Src: src, Tgt: tgt,
		For:    []mapping.Gen{mapping.FromRoot("r", "R")},
		Exists: []mapping.Gen{mapping.FromRoot("t", "T")},
		Where: []mapping.Eq{
			{L: mapping.E("r", "a"), R: mapping.E("t", "u")},
			{L: mapping.E("r", "b"), R: mapping.E("t", "u")},
		},
	}
	rs := src.ByPath(nr.ParsePath("R"))
	in := instance.New(src)
	for _, row := range [][2]string{{"x", "x"}, {"y", "z"}, {"w", "w"}} {
		tu := instance.NewTuple(rs)
		tu.Put("a", instance.C(row[0]))
		tu.Put("b", instance.C(row[1]))
		in.InsertTop(rs, tu)
	}
	out, err := chase.Chase(in, m)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, tu := range out.Top(tgt.ByPath(nr.ParsePath("T"))).Tuples() {
		got[tu.Get("u").String()] = true
	}
	if len(got) != 2 || !got["x"] || !got["w"] {
		t.Fatalf("chase fired %v, want exactly the agreeing rows x and w:\n%s", got, out)
	}
}
