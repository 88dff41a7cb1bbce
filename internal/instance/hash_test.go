package instance

import (
	"fmt"
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

// TestInternHashChain interns distinct terms under one forced hash:
// each keeps its own canonical value (a Null and a SetRef over the
// same symbol and arguments included), and an equal term resolves to
// the first one minted.
func TestInternHashChain(t *testing.T) {
	in := New(compCat())
	var terms []Value
	intern := func(kind byte, fn string, args ...Value) Value {
		var a TermArgs
		a.Set(args)
		return in.internTerm(forcedHash, kind, fn, &a)
	}
	for i := 0; i < 5; i++ {
		for _, kind := range []byte{kindNull, kindSetRef} {
			terms = append(terms, intern(kind, "SK", CI(i)), intern(kind, "SK", CI(i), nil), intern(kind, fmt.Sprint("F", i)))
		}
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
		for _, kind := range []byte{kindNull, kindSetRef} {
			again := []Value{intern(kind, "SK", CI(i)), intern(kind, "SK", CI(i), nil), intern(kind, fmt.Sprint("F", i))}
			for _, v := range again {
				if v != terms[k] {
					t.Fatalf("equal term %v resolved to a new value", v)
				}
				k++
			}
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
	ref := a.InternSetRef("SKProjects", argsOf([]Value{C("IBM"), n}))
	org := a.NewTuple(orgs).Put("oname", C("IBM")).Put("Projects", ref)
	a.InsertTop(orgs, org)
	proj := NewTuple(projs).Put("pname", C("DB")).Put("manager", n)
	a.InsertUnique(projs, ref, proj)

	fresh := func() *SetRef {
		return NewSetRef("SKProjects", C("IBM"), NewNull("N_m_p.manager", C("IBM"), C("DB")))
	}
	occ := a.Set(ref)
	if occ == nil || a.Set(fresh()) != occ {
		t.Fatal("Set misses the occurrence for an equal fresh SetRef")
	}
	if a.EnsureSet(projs, fresh()) != occ {
		t.Fatal("EnsureSet created a second occurrence for an equal fresh SetRef")
	}
	other := b.InternSetRef("SKProjects", argsOf([]Value{C("IBM"), b.InternNull("N_m_p.manager", argsOf([]Value{C("IBM"), C("DB")}))}))
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
	b.InsertUnique(projs, fresh(), NewTuple(projs).Put("pname", C("DB")).Put("manager", other.Args[1]))
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
