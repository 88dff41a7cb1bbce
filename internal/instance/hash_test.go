package instance

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"muse/internal/nr"
)

// forcedHash files every entry of the collision tests under one hash,
// so all of them land in one chain.
const forcedHash = 42

// TestTupleHashChain inserts distinct tuples under one forced hash,
// past the small-set scan into the map's overflow list: all must be
// kept, and equal ones must dedupe.
func TestTupleHashChain(t *testing.T) {
	cat := compCat()
	st := cat.ByPath(nr.ParsePath("Companies"))
	in := New(cat)
	s := in.Top(st)
	row := func(i int) *Tuple {
		return NewTuple(st).Put("cid", CI(i)).Put("cname", C("IBM")).Put("location", C(fmt.Sprint("L", i%3)))
	}
	const n = 3 * smallSet
	for i := 0; i < n; i++ {
		if !in.insertCopy(s, forcedHash, row(i)) {
			t.Fatalf("tuple %d under a shared hash reported duplicate", i)
		}
		// Every tuple so far stays findable, before and after the set
		// outgrows the scan.
		for j := 0; j <= i; j++ {
			if !s.has(forcedHash, row(j)) {
				t.Fatalf("after %d inserts, tuple %d is missing", i+1, j)
			}
		}
	}
	for i := 0; i < n; i++ {
		if in.insertCopy(s, forcedHash, row(i)) {
			t.Fatalf("equal tuple %d under a shared hash inserted twice", i)
		}
	}
	if s.Len() != n {
		t.Fatalf("set has %d tuples, want %d", s.Len(), n)
	}
	if s.has(forcedHash, row(n)) {
		t.Fatal("an absent tuple was found under the shared hash")
	}
	// Insert (taking ownership) chains the same way.
	o := in.EnsureSet(st, NewSetRef("other"))
	for i := 0; i < n; i++ {
		if !o.insert(forcedHash, row(i)) || o.insert(forcedHash, row(i)) {
			t.Fatalf("Insert under a shared hash: tuple %d kept wrongly", i)
		}
	}
}

// TestOccurrenceHashChain creates distinct occurrences under one forced
// hash: each SetID keeps its own occurrence, and an equal SetID, built
// afresh, finds it.
func TestOccurrenceHashChain(t *testing.T) {
	cat := orgCat()
	projs := cat.ByPath(nr.ParsePath("Orgs.Projects"))
	in := New(cat)
	const n = 10
	occ := make([]*SetVal, n)
	for i := range occ {
		occ[i] = in.ensureSet(forcedHash, projs, NewSetRef("SKProjects", CI(i)))
		for j := 0; j < i; j++ {
			if occ[j] == occ[i] {
				t.Fatalf("SetIDs %d and %d share an occurrence", j, i)
			}
		}
	}
	for i := range occ {
		if got := in.ensureSet(forcedHash, projs, NewSetRef("SKProjects", CI(i))); got != occ[i] {
			t.Fatalf("an equal SetID %d created a second occurrence", i)
		}
		if got := in.set(forcedHash, NewSetRef("SKProjects", CI(i))); got != occ[i] {
			t.Fatalf("an equal SetID %d did not find its occurrence", i)
		}
	}
	if in.set(forcedHash, NewSetRef("SKProjects", CI(n))) != nil {
		t.Fatal("an absent SetID found an occurrence")
	}
	if got := len(in.Occurrences(projs)); got != n {
		t.Fatalf("%d occurrences, want %d", got, n)
	}
}

// TestConstHash checks the hash a Const carries from its constructors:
// C, CI and InternConst, in two instances, agree with hashString over
// the empty string, separator and escape bytes and invalid UTF-8, and
// C(s) equals the interned constant as an interface value.
func TestConstHash(t *testing.T) {
	a, b := New(compCat()), New(compCat())
	for _, s := range []string{"", "IBM", "\x00", "a\x01b\x07c", "\x03\x04\x05\x06", "\xff\xfe", "h\xc3", "héllo ☃"} {
		want := hashString(s)
		for i, v := range []Value{C(s), a.InternConst(s), b.InternConst(s)} {
			if got := v.hash(); got != want {
				t.Errorf("%q: constructor %d hashes %#x, want %#x", s, i, got, want)
			}
		}
		if c := Value(C(s)); c != a.InternConst(s) || c != b.InternConst(s) {
			t.Errorf("%q: C(s) differs from the interned constant", s)
		}
	}
	for _, i := range []int{0, -7, 1 << 40} {
		s := strconv.Itoa(i)
		if c := CI(i); c.hash() != hashString(s) || Value(c) != a.InternConst(s) {
			t.Errorf("CI(%d) differs from the constant %q", i, s)
		}
	}
}

// TestInternSetHashChain mints distinct SetIDs under one forced hash
// through InternSet: each gets its own occurrence, in creation order,
// and an equal term, an equal SetRef built afresh (Set, EnsureSet) and
// an equal term interned again all find it.
func TestInternSetHashChain(t *testing.T) {
	cat := orgCat()
	projs := cat.ByPath(nr.ParsePath("Orgs.Projects"))
	in := New(cat)
	terms := func(i int) []*SetRef {
		return []*SetRef{NewSetRef("SK", CI(i)), NewSetRef("SK", CI(i), nil), NewSetRef(fmt.Sprint("F", i))}
	}
	intern := func(r *SetRef) *SetVal { return in.internSet(forcedHash, projs, r.Fn, argsOf(r.Args)) }
	var occ []*SetVal
	for i := 0; i < 5; i++ {
		for _, r := range terms(i) {
			o := intern(r)
			for _, prev := range occ {
				if prev == o {
					t.Fatalf("distinct SetIDs %v and %v share an occurrence", prev.ID, r)
				}
			}
			occ = append(occ, o)
		}
	}
	k := 0
	for i := 0; i < 5; i++ {
		for _, r := range terms(i) {
			if intern(r) != occ[k] {
				t.Fatalf("an equal term %v minted a second occurrence", r)
			}
			if in.set(forcedHash, r) != occ[k] || in.ensureSet(forcedHash, projs, r) != occ[k] {
				t.Fatalf("an equal fresh SetRef %v did not find its occurrence", r)
			}
			k++
		}
	}
	if in.set(forcedHash, NewSetRef("SK", CI(5))) != nil {
		t.Fatal("an absent SetID found an occurrence")
	}
	got := in.Occurrences(projs)
	if len(got) != len(occ) {
		t.Fatalf("%d occurrences, want %d", len(got), len(occ))
	}
	for i := range got {
		if got[i] != occ[i] {
			t.Fatalf("occurrence %d is out of creation order", i)
		}
	}
}

// TestInternHashChain interns distinct nulls under one forced hash:
// each keeps its own canonical value, and an equal term resolves to the
// first one minted.
func TestInternHashChain(t *testing.T) {
	in := New(compCat())
	var terms []Value
	intern := func(fn string, args ...Value) Value { return in.internNull(forcedHash, fn, argsOf(args)) }
	for i := 0; i < 5; i++ {
		terms = append(terms, intern("SK", CI(i)), intern("SK", CI(i), nil), intern(fmt.Sprint("F", i)))
	}
	for i, a := range terms {
		for _, b := range terms[i+1:] {
			if a == b {
				t.Fatalf("distinct terms %v and %v share a canonical value", a, b)
			}
		}
	}
	k := 0
	for i := 0; i < 5; i++ {
		for _, v := range []Value{intern("SK", CI(i)), intern("SK", CI(i), nil), intern(fmt.Sprint("F", i))} {
			if v != terms[k] {
				t.Fatalf("equal term %v resolved to a new value", v)
			}
			k++
		}
	}
	if got := in.Interned(); got != len(terms) {
		t.Fatalf("Interned() = %d, want %d", got, len(terms))
	}
}

// TestIdentityAcrossInstances looks up occurrences and tuples with
// equal values that were built afresh or interned by another instance:
// identity is by content, not by pointer or by table.
func TestIdentityAcrossInstances(t *testing.T) {
	cat := orgCat()
	orgs := cat.ByPath(nr.ParsePath("Orgs"))
	projs := cat.ByPath(nr.ParsePath("Orgs.Projects"))
	a, b := New(cat), New(cat)

	n := a.InternNull("N_m_p.manager", argsOf([]Value{C("IBM"), C("DB")}))
	occ := a.InternSet(projs, "SKProjects", argsOf([]Value{C("IBM"), n}))
	ref := occ.ID
	org := a.NewTuple(orgs).Put("oname", C("IBM")).Put("Projects", ref)
	a.InsertTop(orgs, org)
	proj := NewTuple(projs).Put("pname", C("DB")).Put("manager", n)
	a.InsertUnique(occ, proj)

	fresh := func() *SetRef {
		return NewSetRef("SKProjects", C("IBM"), NewNull("N_m_p.manager", C("IBM"), C("DB")))
	}
	if a.Set(ref) != occ || a.Set(fresh()) != occ {
		t.Fatal("Set misses the occurrence for an equal fresh SetRef")
	}
	if a.EnsureSet(projs, fresh()) != occ {
		t.Fatal("EnsureSet created a second occurrence for an equal fresh SetRef")
	}
	other := b.InternSet(projs, "SKProjects", argsOf([]Value{C("IBM"), b.InternNull("N_m_p.manager", argsOf([]Value{C("IBM"), C("DB")}))})).ID
	if a.Set(other) != occ {
		t.Fatal("Set misses the occurrence for an equal SetRef interned by another instance")
	}
	if !occ.Contains(NewTuple(projs).Put("pname", C("DB")).Put("manager", NewNull("N_m_p.manager", C("IBM"), C("DB")))) {
		t.Fatal("Contains misses a tuple rebuilt from fresh values")
	}
	if !a.Top(orgs).Contains(b.NewTuple(orgs).Put("oname", b.InternConst("IBM")).Put("Projects", other)) {
		t.Fatal("Contains misses a tuple built from another instance's values")
	}
	if occ.Contains(NewTuple(projs).Put("pname", C("DB")).Put("manager", NewNull("N_m_p.manager", C("IBM"), C("Web")))) {
		t.Fatal("Contains found a tuple that differs in a nested argument")
	}
	// b, built from the other instance's values, equals a.
	b.InsertTop(orgs, b.NewTuple(orgs).Put("oname", C("IBM")).Put("Projects", other))
	b.InsertUnique(b.EnsureSet(projs, fresh()), NewTuple(projs).Put("pname", C("DB")).Put("manager", other.Args[1]))
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatalf("instances with equal content are not Equal:\n%s\nvs\n%s", a, b)
	}
	if a.String() != b.String() {
		t.Fatal("instances with equal content render differently")
	}
}

// TestInstanceConcurrentReads reads one shared instance from 8
// goroutines, as server sessions do, while every hash and key cache
// involved is cold: the first Set, Contains, Key or String on a value
// fills its cache. Run under -race (make race-instance).
func TestInstanceConcurrentReads(t *testing.T) {
	cat := orgCat()
	orgs := cat.ByPath(nr.ParsePath("Orgs"))
	projs := cat.ByPath(nr.ParsePath("Orgs.Projects"))
	in := New(cat)
	const n = 50
	mgr := func(i int) *Null { return NewNull("N_m_p.manager", CI(i), C("x")) }
	ref := func(i int) *SetRef { return NewSetRef("SKProjects", CI(i), mgr(i)) }
	for i := 0; i < n; i++ {
		r := ref(i)
		in.InsertTop(orgs, NewTuple(orgs).Put("oname", CI(i)).Put("Projects", r))
		in.Insert(projs, r, NewTuple(projs).Put("pname", C("P")).Put("manager", mgr(i)))
	}
	// Query values built afresh, shared by all goroutines, caches cold.
	refs := make([]*SetRef, n)
	tuples := make([]*Tuple, n)
	for i := range refs {
		refs[i] = ref(i)
		tuples[i] = NewTuple(projs).Put("pname", C("P")).Put("manager", mgr(i))
	}
	want := make(chan string, 1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < n; k++ {
				i := (k + g*7) % n
				occ := in.Set(refs[i])
				if occ == nil || !occ.Contains(tuples[i]) {
					t.Errorf("goroutine %d: occurrence or tuple %d not found", g, i)
					return
				}
				if !strings.HasPrefix(refs[i].Key(), "s\x00SKProjects") || tuples[i].Key() != occ.View()[0].Key() {
					t.Errorf("goroutine %d: keys of value %d disagree", g, i)
					return
				}
			}
			out := in.String()
			select {
			case want <- out:
			default:
				if w := <-want; w != out {
					t.Errorf("goroutine %d: rendering differs", g)
				}
				want <- out
			}
		}(g)
	}
	wg.Wait()
}
