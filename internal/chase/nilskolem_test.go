package chase_test

import (
	"testing"

	"muse/internal/chase"
	"muse/internal/instance"
	"muse/internal/mapping"
	"muse/internal/nr"
)

// TestChaseNilSkolemArgs is the minimized regression for the
// unset-slot Skolem crash the crosscheck harness flushed out: a
// mapping whose grouping-function (and null) arguments evaluate a
// source slot that is unset made the chase build SetRefs and Nulls
// with nil argument values, and the first Key() on them — inside
// EnsureSet — crashed the process. An unset argument is now a
// legitimate, distinct Skolem argument: the chase must run, and a
// tuple whose slot holds the empty constant must group separately
// from one whose slot is unset.
func TestChaseNilSkolemArgs(t *testing.T) {
	src := nr.MustCatalog(nr.MustSchema("S", nr.Record(
		nr.F("A", nr.SetOf(nr.Record(nr.F("x", nr.StringType()), nr.F("y", nr.StringType())))),
	)))
	tgt := nr.MustCatalog(nr.MustSchema("T", nr.Record(
		nr.F("T", nr.SetOf(nr.Record(
			nr.F("u", nr.StringType()),
			nr.F("Ps", nr.SetOf(nr.Record(nr.F("q", nr.StringType())))),
		))),
	)))
	m := &mapping.Mapping{
		Name: "m", Src: src, Tgt: tgt,
		For:    []mapping.Gen{mapping.FromRoot("a", "A")},
		Exists: []mapping.Gen{mapping.FromRoot("t", "T"), mapping.FromParent("p", "t", "Ps")},
		Where:  []mapping.Eq{{L: mapping.E("a", "x"), R: mapping.E("t", "u")}},
		SKs: []mapping.SKAssign{{
			Set: mapping.E("t", "Ps"),
			SK:  mapping.SKTerm{Fn: "SKPs", Args: []mapping.Expr{mapping.E("a", "x"), mapping.E("a", "y")}},
		}},
	}
	a := src.ByPath(nr.ParsePath("A"))
	in := instance.New(src)
	in.InsertTop(a, instance.NewTuple(a).Put("x", instance.C("1"))) // y unset
	in.InsertTop(a, instance.NewTuple(a).Put("x", instance.C("1")).Put("y", instance.C("")))

	out, err := chase.Chase(in, m)
	if err != nil {
		t.Fatalf("Chase: %v", err)
	}
	// The two source tuples agree on x but differ on y (unset vs empty
	// constant), so their grouping terms — and hence target tuples —
	// must stay distinct.
	tt := tgt.ByPath(nr.ParsePath("T"))
	if n := out.Top(tt).Len(); n != 2 {
		t.Fatalf("got %d target tuples, want 2 (unset and empty grouped together?)\n%s", n, out)
	}
}
