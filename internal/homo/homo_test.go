package homo

import (
	"fmt"
	"testing"
	"time"

	"muse/internal/instance"
	"muse/internal/nr"
)

func orgCat() *nr.Catalog {
	return nr.MustCatalog(nr.MustSchema("OrgDB", nr.Record(
		nr.F("Orgs", nr.SetOf(nr.Record(
			nr.F("oname", nr.StringType()),
			nr.F("Projects", nr.SetOf(nr.Record(
				nr.F("pname", nr.StringType()),
			))),
		))),
	)))
}

func flatCat() *nr.Catalog {
	return nr.MustCatalog(nr.MustSchema("S", nr.Record(
		nr.F("R", nr.SetOf(nr.Record(
			nr.F("a", nr.StringType()),
			nr.F("b", nr.StringType()),
		))),
	)))
}

// flat builds a one-relation instance from rows of (a, b) values.
func flat(cat *nr.Catalog, rows ...[2]instance.Value) *instance.Instance {
	st := cat.ByPath(nr.ParsePath("R"))
	in := instance.New(cat)
	for _, r := range rows {
		in.InsertTop(st, instance.NewTuple(st).Put("a", r[0]).Put("b", r[1]))
	}
	return in
}

func TestIdentityHomomorphism(t *testing.T) {
	cat := flatCat()
	a := flat(cat, [2]instance.Value{instance.C("1"), instance.C("2")})
	if !Homomorphic(a, a) || !Isomorphic(a, a) || !Equivalent(a, a) {
		t.Error("instance not homomorphic to itself")
	}
}

func TestConstantsArePreserved(t *testing.T) {
	cat := flatCat()
	a := flat(cat, [2]instance.Value{instance.C("1"), instance.C("2")})
	b := flat(cat, [2]instance.Value{instance.C("1"), instance.C("3")})
	if Homomorphic(a, b) {
		t.Error("homomorphism changed a constant")
	}
}

func TestNullMapsToConstant(t *testing.T) {
	cat := flatCat()
	n := instance.NewNull("N1")
	a := flat(cat, [2]instance.Value{instance.C("1"), n})
	b := flat(cat, [2]instance.Value{instance.C("1"), instance.C("42")})
	if !Homomorphic(a, b) {
		t.Error("null should map to a constant")
	}
	if Homomorphic(b, a) {
		t.Error("constant cannot map to a null")
	}
	if Equivalent(a, b) {
		t.Error("a and b are not equivalent")
	}
	if Isomorphic(a, b) {
		t.Error("null→constant cannot be an isomorphism")
	}
}

func TestNullConsistency(t *testing.T) {
	cat := flatCat()
	n := instance.NewNull("N1")
	// Same null twice must map to the same value.
	a := flat(cat, [2]instance.Value{n, n})
	b := flat(cat, [2]instance.Value{instance.C("1"), instance.C("2")})
	if Homomorphic(a, b) {
		t.Error("one null mapped to two different constants")
	}
	c := flat(cat, [2]instance.Value{instance.C("7"), instance.C("7")})
	if !Homomorphic(a, c) {
		t.Error("null should map consistently to 7")
	}
}

func TestTwoNullsMayCollapse(t *testing.T) {
	cat := flatCat()
	n1, n2 := instance.NewNull("N1"), instance.NewNull("N2")
	a := flat(cat, [2]instance.Value{n1, n2})
	b := flat(cat, [2]instance.Value{instance.NewNull("M"), instance.NewNull("M")})
	if !Homomorphic(a, b) {
		t.Error("distinct nulls should be allowed to collapse in a plain homomorphism")
	}
	if Isomorphic(a, b) {
		t.Error("collapsing nulls is not injective")
	}
}

func TestHomomorphicEquivalentButNotIsomorphic(t *testing.T) {
	// The Sec. III-A situation: two scenario instances can be
	// homomorphically equivalent yet non-isomorphic, e.g. one vs two
	// tuples with interchangeable nulls.
	cat := flatCat()
	n1, n2 := instance.NewNull("N1"), instance.NewNull("N2")
	a := flat(cat, [2]instance.Value{instance.C("x"), n1})
	b := flat(cat,
		[2]instance.Value{instance.C("x"), n1},
		[2]instance.Value{instance.C("x"), n2})
	if !Equivalent(a, b) {
		t.Error("a and b should be homomorphically equivalent")
	}
	if Isomorphic(a, b) {
		t.Error("different tuple counts cannot be isomorphic")
	}
}

func TestTupleSubsetHomomorphism(t *testing.T) {
	cat := flatCat()
	a := flat(cat, [2]instance.Value{instance.C("1"), instance.C("2")})
	b := flat(cat,
		[2]instance.Value{instance.C("1"), instance.C("2")},
		[2]instance.Value{instance.C("3"), instance.C("4")})
	if !Homomorphic(a, b) {
		t.Error("subset instance should map into superset")
	}
	if Homomorphic(b, a) {
		t.Error("superset with distinct constants mapped into subset")
	}
}

// nested builds an Orgs instance with the given org → project names.
func nested(cat *nr.Catalog, orgs map[string][]string, skArg func(org string) instance.Value) *instance.Instance {
	orgSt := cat.ByPath(nr.ParsePath("Orgs"))
	projSt := cat.ByPath(nr.ParsePath("Orgs.Projects"))
	in := instance.New(cat)
	for org, projects := range orgs {
		ref := instance.NewSetRef("SKProjects", skArg(org))
		in.InsertTop(orgSt, instance.NewTuple(orgSt).Put("oname", instance.C(org)).Put("Projects", ref))
		for _, p := range projects {
			in.Insert(projSt, ref, instance.NewTuple(projSt).Put("pname", instance.C(p)))
		}
	}
	return in
}

func TestNestedIsomorphismUpToSetIDRenaming(t *testing.T) {
	cat := orgCat()
	a := nested(cat, map[string][]string{"IBM": {"DB", "Web"}},
		func(o string) instance.Value { return instance.C(o) })
	b := nested(cat, map[string][]string{"IBM": {"DB", "Web"}},
		func(o string) instance.Value { return instance.NewNull("K") })
	if !Isomorphic(a, b) {
		t.Error("instances differing only in SetID arguments should be isomorphic")
	}
}

func TestNestedGroupingDistinguished(t *testing.T) {
	// One Projects set holding {DB, Web} vs two singleton Projects
	// sets: homomorphic in one direction at most, never isomorphic.
	cat := orgCat()
	orgSt := cat.ByPath(nr.ParsePath("Orgs"))
	projSt := cat.ByPath(nr.ParsePath("Orgs.Projects"))

	grouped := instance.New(cat)
	ref := instance.NewSetRef("SKProjects", instance.C("IBM"))
	grouped.InsertTop(orgSt, instance.NewTuple(orgSt).Put("oname", instance.C("IBM")).Put("Projects", ref))
	grouped.Insert(projSt, ref, instance.NewTuple(projSt).Put("pname", instance.C("DB")))
	grouped.Insert(projSt, ref, instance.NewTuple(projSt).Put("pname", instance.C("Web")))

	split := instance.New(cat)
	r1 := instance.NewSetRef("SKProjects", instance.C("1"))
	r2 := instance.NewSetRef("SKProjects", instance.C("2"))
	split.InsertTop(orgSt, instance.NewTuple(orgSt).Put("oname", instance.C("IBM")).Put("Projects", r1))
	split.InsertTop(orgSt, instance.NewTuple(orgSt).Put("oname", instance.C("IBM")).Put("Projects", r2))
	split.Insert(projSt, r1, instance.NewTuple(projSt).Put("pname", instance.C("DB")))
	split.Insert(projSt, r2, instance.NewTuple(projSt).Put("pname", instance.C("Web")))

	if Isomorphic(grouped, split) {
		t.Error("different grouping reported isomorphic")
	}
	// split → grouped: both SetIDs can map to the one set; every
	// project lands inside. grouped → split: the single SetID cannot
	// cover both singleton sets.
	if !Homomorphic(split, grouped) {
		t.Error("split should map homomorphically onto grouped")
	}
	if Homomorphic(grouped, split) {
		t.Error("grouped cannot map onto split (DB and Web are in one set)")
	}
}

func TestSetRefCannotMapToAtom(t *testing.T) {
	cat := orgCat()
	orgSt := cat.ByPath(nr.ParsePath("Orgs"))
	a := instance.New(cat)
	a.InsertTop(orgSt, instance.NewTuple(orgSt).
		Put("oname", instance.C("IBM")).
		Put("Projects", instance.NewSetRef("SKProjects", instance.C("1"))))
	b := instance.New(cat)
	b.InsertTop(orgSt, instance.NewTuple(orgSt).
		Put("oname", instance.C("IBM")).
		Put("Projects", instance.NewNull("N")))
	if Homomorphic(a, b) {
		t.Error("SetID mapped to a null")
	}
	if Homomorphic(b, a) {
		t.Error("null mapped to a SetID")
	}
}

func TestEmptyInstances(t *testing.T) {
	cat := flatCat()
	a := instance.New(cat)
	b := instance.New(cat)
	if !Homomorphic(a, b) || !Isomorphic(a, b) {
		t.Error("empty instances should be trivially isomorphic")
	}
	c := flat(cat, [2]instance.Value{instance.C("1"), instance.C("2")})
	if !Homomorphic(a, c) {
		t.Error("empty maps into anything")
	}
	if Homomorphic(c, a) {
		t.Error("non-empty mapped into empty")
	}
}

func TestDifferentSchemasRejected(t *testing.T) {
	a := instance.New(flatCat())
	b := instance.New(orgCat())
	if Homomorphic(a, b) {
		t.Error("instances of different schemas reported homomorphic")
	}
}

func TestMissingVsPresentField(t *testing.T) {
	cat := flatCat()
	st := cat.ByPath(nr.ParsePath("R"))
	a := instance.New(cat)
	a.InsertTop(st, instance.NewTuple(st).Put("a", instance.C("1"))) // b unset
	b := instance.New(cat)
	b.InsertTop(st, instance.NewTuple(st).Put("a", instance.C("1")).Put("b", instance.C("2")))
	if Homomorphic(a, b) || Homomorphic(b, a) {
		t.Error("partial tuples should not match total ones")
	}
}

func TestFindReturnsBindings(t *testing.T) {
	cat := flatCat()
	n := instance.NewNull("N1")
	a := flat(cat, [2]instance.Value{instance.C("1"), n})
	b := flat(cat, [2]instance.Value{instance.C("1"), instance.C("42")})
	h, ok := Find(a, b)
	if !ok {
		t.Fatal("no homomorphism found")
	}
	if v, _ := h.Get([]instance.Value{n}); v == nil || v.String() != "42" {
		t.Errorf("binding for N1 = %v, want 42", v)
	}
}

func TestBacktrackingAcrossCandidates(t *testing.T) {
	// First candidate matches on 'a' but fails on 'b'; the search must
	// back off and take the second candidate.
	cat := flatCat()
	n := instance.NewNull("N")
	a := flat(cat,
		[2]instance.Value{n, instance.C("x")},
		[2]instance.Value{n, instance.C("y")})
	b := flat(cat,
		[2]instance.Value{instance.C("1"), instance.C("x")},
		[2]instance.Value{instance.C("2"), instance.C("x")},
		[2]instance.Value{instance.C("2"), instance.C("y")})
	// N must be 2: tuple (N,x) matches (2,x) and (N,y) matches (2,y).
	h, ok := Find(a, b)
	if !ok {
		t.Fatal("backtracking failed to find the homomorphism")
	}
	if v, _ := h.Get([]instance.Value{n}); v == nil || v.String() != "2" {
		t.Errorf("N bound to %v, want 2", v)
	}
}

// TestLargeIdenticalInstancesFast: comparing a chase-sized instance
// with itself must run essentially linearly (the identity bias), and
// symmetric non-isomorphic pairs must fail within the search budget
// instead of exploding.
func TestLargeIdenticalInstancesFast(t *testing.T) {
	cat := orgCat()
	orgs := cat.ByPath(nr.ParsePath("Orgs"))
	projs := cat.ByPath(nr.ParsePath("Orgs.Projects"))
	build := func(n int, extra bool) *instance.Instance {
		in := instance.New(cat)
		for i := 0; i < n; i++ {
			// Many orgs share the name — the symmetric case that used to
			// explode — but each owns a distinct nested set.
			ref := instance.NewSetRef("SKProjects", instance.NewNull("K", instance.C(itoa(i))))
			in.InsertTop(orgs, instance.NewTuple(orgs).Put("oname", instance.C("IBM")).Put("Projects", ref))
			in.Insert(projs, ref, instance.NewTuple(projs).
				Put("pname", instance.NewNull("P", instance.C(itoa(i)))))
		}
		if extra {
			ref := instance.NewSetRef("SKProjects", instance.C("odd"))
			in.InsertTop(orgs, instance.NewTuple(orgs).Put("oname", instance.C("ODD")).Put("Projects", ref))
			in.EnsureSet(projs, ref)
		}
		return in
	}
	a := build(60, false)
	b := build(60, false)
	done := make(chan bool, 2)
	go func() { done <- Isomorphic(a, b) }()
	select {
	case ok := <-done:
		if !ok {
			t.Error("identical instances reported non-isomorphic")
		}
	case <-timeAfter(t):
		t.Fatal("isomorphism on identical instances too slow")
	}
	// Non-isomorphic symmetric pair: must terminate (budget or pruning).
	c := build(60, true)
	go func() { done <- Isomorphic(a, c) }()
	select {
	case ok := <-done:
		if ok {
			t.Error("instances of different sizes reported isomorphic")
		}
	case <-timeAfter(t):
		t.Fatal("non-isomorphism proof did not terminate in time")
	}
}

func timeAfter(t *testing.T) <-chan time.Time {
	t.Helper()
	return time.After(10 * time.Second)
}

func itoa(i int) string { return fmt.Sprint(i) }
