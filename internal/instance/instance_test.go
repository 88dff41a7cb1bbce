package instance

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"muse/internal/nr"
)

func compCat() *nr.Catalog {
	return nr.MustCatalog(nr.MustSchema("CompDB", nr.Record(
		nr.F("Companies", nr.SetOf(nr.Record(
			nr.F("cid", nr.IntType()),
			nr.F("cname", nr.StringType()),
			nr.F("location", nr.StringType()),
		))),
	)))
}

func orgCat() *nr.Catalog {
	return nr.MustCatalog(nr.MustSchema("OrgDB", nr.Record(
		nr.F("Orgs", nr.SetOf(nr.Record(
			nr.F("oname", nr.StringType()),
			nr.F("Projects", nr.SetOf(nr.Record(
				nr.F("pname", nr.StringType()),
				nr.F("manager", nr.IntType()),
			))),
		))),
	)))
}

func TestValueKeysDistinguishKinds(t *testing.T) {
	c := C("x")
	n := NewNull("x")
	s := NewSetRef("x")
	if c.Key() == n.Key() || c.Key() == s.Key() || n.Key() == s.Key() {
		t.Error("values of different kinds share canonical keys")
	}
}

func TestSkolemValueEquality(t *testing.T) {
	a := NewNull("F", C("1"), C("2"))
	b := NewNull("F", C("1"), C("2"))
	if !SameValue(a, b) {
		t.Error("identical skolem nulls not equal")
	}
	if SameValue(a, NewNull("F", C("1"))) {
		t.Error("nulls with different arities equal")
	}
	if SameValue(a, NewNull("G", C("1"), C("2"))) {
		t.Error("nulls with different symbols equal")
	}
	// Nested terms.
	x := NewSetRef("SK", NewNull("F", C("1")))
	y := NewSetRef("SK", NewNull("F", C("1")))
	if !SameValue(x, y) {
		t.Error("identical nested setrefs not equal")
	}
	if SameValue(nil, x) || !SameValue(nil, nil) {
		t.Error("nil handling in SameValue")
	}
}

func TestValueKeyInjectiveQuick(t *testing.T) {
	// Constants with distinct payloads must have distinct keys, and the
	// key must round-trip equality.
	f := func(a, b string) bool {
		ka, kb := C(a).Key(), C(b).Key()
		return (a == b) == (ka == kb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueKeyNoCollisionAcrossArgBoundaries(t *testing.T) {
	// F(ab) vs F(a, b): the separator bytes must keep these apart.
	a := NewNull("F", C("ab"))
	b := NewNull("F", C("a"), C("b"))
	if a.Key() == b.Key() {
		t.Error("argument-boundary collision in canonical keys")
	}
	// F(a)(nothing) vs F() with arg "a" in symbol.
	c := NewNull("Fa")
	d := NewNull("F", C("a"))
	if c.Key() == d.Key() {
		t.Error("symbol/argument collision in canonical keys")
	}
	// A constant holding the separator bytes must not forge an argument
	// boundary: SK("a\x02c\x00b") is one argument, not SK(a, b).
	forged := NewSetRef("SK", C("a\x02c\x00b"))
	split := NewSetRef("SK", C("a"), C("b"))
	if forged.Key() == split.Key() {
		t.Error("constant with separator bytes forges an argument boundary in keys")
	}
	if SameValue(forged, split) {
		t.Error("SameValue equates a one-argument SetID with a two-argument one")
	}
	// Nor may a term symbol forge an argument list.
	sym := NewNull("F\x01c\x00a\x02c\x00b")
	args := NewNull("F", C("a"), C("b\x01"))
	if sym.Key() == args.Key() || SameValue(sym, args) {
		t.Error("symbol with separator bytes forges an argument list")
	}
}

// TestKeyEqualityAgreesWithSameValue builds random terms over strings
// drawn from the separator and escape bytes and checks that Key
// equality, SameValue, and content-hash equality of equal values agree.
func TestKeyEqualityAgreesWithSameValue(t *testing.T) {
	atoms := []string{"", "a", "c", "\x00", "\x01", "\x02", "\x03", "\x04", "\x05", "\x06", "\x07", "\x070", "a\x02c\x00b", "\x07\x07"}
	rng := rand.New(rand.NewSource(1))
	str := func() string {
		var b strings.Builder
		for n := rng.Intn(3); n >= 0; n-- {
			b.WriteString(atoms[rng.Intn(len(atoms))])
		}
		return b.String()
	}
	var gen func(depth int) Value
	gen = func(depth int) Value {
		k := rng.Intn(4)
		if depth > 2 {
			k %= 2
		}
		switch k {
		case 0:
			return nil
		case 1:
			return C(str())
		}
		args := make([]Value, rng.Intn(3))
		for i := range args {
			args[i] = gen(depth + 1)
		}
		if k == 2 {
			return NewNull(str(), args...)
		}
		return NewSetRef(str(), args...)
	}
	key := func(v Value) string {
		if v == nil {
			return ""
		}
		return v.Key()
	}
	hash := func(v Value) uint64 {
		if v == nil {
			return hashNil
		}
		return v.hash()
	}
	vals := make([]Value, 400)
	for i := range vals {
		vals[i] = gen(0)
	}
	for i, a := range vals {
		for _, b := range vals[i:] {
			same := SameValue(a, b)
			if keyEq := key(a) == key(b); keyEq != same {
				t.Fatalf("Key equality %v but SameValue %v for %q vs %q (%#v / %#v)", keyEq, same, key(a), key(b), a, b)
			}
			if same && hash(a) != hash(b) {
				t.Fatalf("equal values %q hash apart", key(a))
			}
		}
	}
}

func TestValueString(t *testing.T) {
	if got := NewSetRef("SKProjs", CI(111), C("IBM")).String(); got != "SKProjs(111,IBM)" {
		t.Errorf("SetRef.String() = %q", got)
	}
	if got := NewNull("N1").String(); got != "N1" {
		t.Errorf("bare null renders %q", got)
	}
	if got := NewNull("Naddr", C("IBM")).String(); got != "Naddr(IBM)" {
		t.Errorf("skolem null renders %q", got)
	}
	if got := CI(42).String(); got != "42" {
		t.Errorf("CI(42) = %q", got)
	}
}

func TestTupleKeyOrderIndependent(t *testing.T) {
	cat := compCat()
	st := cat.ByPath(nr.ParsePath("Companies"))
	a := NewTuple(st).Put("cid", CI(1)).Put("cname", C("IBM")).Put("location", C("NY"))
	b := NewTuple(st).Put("location", C("NY")).Put("cname", C("IBM")).Put("cid", CI(1))
	if a.Key() != b.Key() {
		t.Error("tuple key depends on insertion order of fields")
	}
	c := NewTuple(st).Put("cid", CI(1)).Put("cname", C("NY")).Put("location", C("IBM"))
	if a.Key() == c.Key() {
		t.Error("tuple key ignores which field holds which value")
	}
}

func TestTuplePartialKeyDistinct(t *testing.T) {
	cat := compCat()
	st := cat.ByPath(nr.ParsePath("Companies"))
	a := NewTuple(st).Put("cid", CI(1))
	b := NewTuple(st).Put("cname", C("1"))
	if a.Key() == b.Key() {
		t.Error("partial tuples with shifted values collide")
	}
}

func TestSetDedup(t *testing.T) {
	cat := compCat()
	st := cat.ByPath(nr.ParsePath("Companies"))
	in := New(cat)
	a := NewTuple(st).Put("cid", CI(1)).Put("cname", C("IBM"))
	if !in.InsertTop(st, a) {
		t.Error("first insert reported duplicate")
	}
	dup := NewTuple(st).Put("cid", CI(1)).Put("cname", C("IBM"))
	if in.InsertTop(st, dup) {
		t.Error("duplicate insert reported new")
	}
	if in.Top(st).Len() != 1 {
		t.Errorf("set has %d tuples, want 1", in.Top(st).Len())
	}
	if !in.Top(st).Contains(dup) {
		t.Error("Contains misses an inserted tuple")
	}

	// Separator bytes inside a constant must not shift slot boundaries:
	// ("x\x04c\x00y", "z") and ("x", "y\x04c\x00z") are distinct.
	in = New(cat)
	a = NewTuple(st).Put("cid", C("x\x04c\x00y")).Put("cname", C("z"))
	b := NewTuple(st).Put("cid", C("x")).Put("cname", C("y\x04c\x00z"))
	if a.Key() == b.Key() {
		t.Error("tuples with shifted separator bytes render the same key")
	}
	if !in.InsertTop(st, a) || !in.InsertTop(st, b) {
		t.Error("InsertTop dropped a distinct tuple whose constants hold separator bytes")
	}
	if in.Top(st).Len() != 2 {
		t.Errorf("set has %d tuples, want 2", in.Top(st).Len())
	}
}

func TestInsertMismatchedTypePanics(t *testing.T) {
	cat := orgCat()
	orgs := cat.ByPath(nr.ParsePath("Orgs"))
	projs := cat.ByPath(nr.ParsePath("Orgs.Projects"))
	in := New(cat)
	defer func() {
		if recover() == nil {
			t.Error("inserting a tuple of the wrong set type did not panic")
		}
	}()
	in.Top(orgs).Insert(NewTuple(projs))
}

func TestNestedOccurrences(t *testing.T) {
	cat := orgCat()
	orgs := cat.ByPath(nr.ParsePath("Orgs"))
	projs := cat.ByPath(nr.ParsePath("Orgs.Projects"))
	in := New(cat)

	ref1 := NewSetRef("SKProjects", C("IBM"))
	ref2 := NewSetRef("SKProjects", C("SBC"))
	in.InsertTop(orgs, NewTuple(orgs).Put("oname", C("IBM")).Put("Projects", ref1))
	in.InsertTop(orgs, NewTuple(orgs).Put("oname", C("SBC")).Put("Projects", ref2))
	in.Insert(projs, ref1, NewTuple(projs).Put("pname", C("DB")).Put("manager", CI(4)))
	in.Insert(projs, ref1, NewTuple(projs).Put("pname", C("Web")).Put("manager", CI(5)))
	in.Insert(projs, ref2, NewTuple(projs).Put("pname", C("WiFi")).Put("manager", CI(6)))

	if occ := in.Occurrences(projs); len(occ) != 2 {
		t.Fatalf("Projects has %d occurrences, want 2", len(occ))
	}
	if got := len(in.AllTuples(projs)); got != 3 {
		t.Errorf("AllTuples(Projects) = %d, want 3", got)
	}
	if in.Set(ref1).Len() != 2 || in.Set(ref2).Len() != 1 {
		t.Error("occurrence membership wrong")
	}
	if in.TupleCount() != 5 {
		t.Errorf("TupleCount = %d, want 5", in.TupleCount())
	}

	out := in.String()
	for _, want := range []string{"Orgs:", "SKProjects(IBM)", "DB", "WiFi"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered instance missing %q:\n%s", want, out)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	cat := compCat()
	st := cat.ByPath(nr.ParsePath("Companies"))
	in := New(cat)
	in.MustInsertVals("Companies", "1", "IBM", "NY")
	c := in.Clone()
	if !in.Equal(c) {
		t.Fatal("clone not equal to original")
	}
	c.MustInsertVals("Companies", "2", "SBC", "SF")
	if in.Equal(c) {
		t.Error("mutating the clone affected equality with the original")
	}
	if in.Top(st).Len() != 1 {
		t.Error("mutating the clone mutated the original")
	}
}

func TestEqualIgnoresEmptyOccurrences(t *testing.T) {
	cat := orgCat()
	projs := cat.ByPath(nr.ParsePath("Orgs.Projects"))
	a := New(cat)
	b := New(cat)
	// b has an extra empty nested occurrence; instances should still be
	// equal (an empty set occurrence is indistinguishable in the data).
	b.EnsureSet(projs, NewSetRef("SKProjects", C("ghost")))
	if !a.Equal(b) || !b.Equal(a) {
		t.Error("empty occurrences should not affect equality")
	}
	b.Insert(projs, NewSetRef("SKProjects", C("ghost")), NewTuple(projs).Put("pname", C("X")))
	if a.Equal(b) {
		t.Error("non-empty occurrence ignored by equality")
	}
}

func TestInsertRowValidation(t *testing.T) {
	cat := orgCat()
	in := New(cat)
	if err := in.InsertRow("Nope", Row{}); err == nil {
		t.Error("InsertRow accepted unknown set")
	}
	if err := in.InsertRow("Orgs", Row{"bogus": "1"}); err == nil {
		t.Error("InsertRow accepted unknown label")
	}
	if err := in.InsertRow("Orgs.Projects", Row{"pname": "x"}); err == nil {
		t.Error("InsertRow accepted nested set")
	}
	if err := in.InsertRow("Orgs", Row{"oname": "IBM"}); err != nil {
		t.Errorf("InsertRow rejected valid row: %v", err)
	}
}

func TestSizeBytesGrows(t *testing.T) {
	cat := compCat()
	in := New(cat)
	if in.SizeBytes() != 0 {
		t.Error("empty instance has non-zero size")
	}
	in.MustInsertVals("Companies", "1", "IBM", "NY")
	small := in.SizeBytes()
	in.MustInsertVals("Companies", "2", "International Business Machines", "Yorktown Heights")
	if in.SizeBytes() <= small {
		t.Error("SizeBytes did not grow after inserting a larger row")
	}
}

func TestKindPredicates(t *testing.T) {
	if !IsConst(C("x")) || IsConst(NewNull("n")) {
		t.Error("IsConst wrong")
	}
	if !IsNull(NewNull("n")) || IsNull(C("x")) {
		t.Error("IsNull wrong")
	}
	if !IsSetRef(NewSetRef("s")) || IsSetRef(C("x")) {
		t.Error("IsSetRef wrong")
	}
}

func TestUnreferencedSetsRendered(t *testing.T) {
	cat := orgCat()
	projs := cat.ByPath(nr.ParsePath("Orgs.Projects"))
	in := New(cat)
	in.Insert(projs, NewSetRef("SKProjects", C("orphan")), NewTuple(projs).Put("pname", C("Ghost")))
	out := in.String()
	if !strings.Contains(out, "[unreferenced]") || !strings.Contains(out, "Ghost") {
		t.Errorf("orphan occurrence not rendered:\n%s", out)
	}
}

func TestStringCompact(t *testing.T) {
	cat := orgCat()
	orgs := cat.ByPath(nr.ParsePath("Orgs"))
	projs := cat.ByPath(nr.ParsePath("Orgs.Projects"))
	in := New(cat)
	big := NewSetRef("SKProjects", C("a"), C("b"), C("c"), C("d"))
	n := NewNull("N_m2_p1.manager", C("long"), C("skolem"), C("args"))
	in.InsertTop(orgs, NewTuple(orgs).Put("oname", C("IBM")).Put("Projects", big))
	in.Insert(projs, big, NewTuple(projs).Put("pname", C("DB")).Put("manager", n))
	out := in.StringCompact()
	if strings.Contains(out, "skolem") {
		t.Errorf("compact rendering leaked skolem arguments:\n%s", out)
	}
	if !strings.Contains(out, "SKProjects#1") || !strings.Contains(out, "N1") {
		t.Errorf("compact rendering missing short names:\n%s", out)
	}
	// Equal terms share one short name across the rendering.
	in.InsertTop(orgs, NewTuple(orgs).Put("oname", C("IBM2")).Put("Projects", big))
	out2 := in.StringCompact()
	if strings.Count(out2, "SKProjects#1") != 2 || strings.Contains(out2, "SKProjects#2") {
		t.Errorf("equal SetIDs should share the short name:\n%s", out2)
	}
}

func TestMustHelpers(t *testing.T) {
	cat := orgCat()
	in := New(cat)
	in.MustInsertRow("Orgs", Row{"oname": "IBM"})
	if in.Top(cat.ByPath(nr.ParsePath("Orgs"))).Len() != 1 {
		t.Error("MustInsertRow did not insert")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustInsertRow should panic on bad input")
		}
	}()
	in.MustInsertRow("Nope", Row{})
}
