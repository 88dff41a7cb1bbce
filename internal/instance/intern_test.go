package instance

import (
	"fmt"
	"sync"
	"testing"

	"muse/internal/nr"
)

// argsOf returns a TermArgs over vals.
func argsOf(vals []Value) *TermArgs {
	var a TermArgs
	a.Set(vals)
	return &a
}

// TestInternCanonical asserts the core interning contract: equal
// values obtained through Intern* share one canonical pointer, so
// SameValue decides them by pointer comparison, and equal SetIDs
// obtained through InternSet share one canonical occurrence.
func TestInternCanonical(t *testing.T) {
	cat := orgCat()
	projs := cat.ByPath(nr.ParsePath("Orgs.Projects"))
	in := New(cat)

	c1 := in.InternConst("IBM")
	c2 := in.InternConst("IBM")
	if c1 != c2 {
		t.Fatalf("interned consts differ: %v vs %v", c1, c2)
	}
	if c1.(Const).S != "IBM" {
		t.Fatalf("interned const holds %q", c1.(Const).S)
	}

	args := []Value{C("a"), C("b")}
	n1 := in.InternNull("N_x", argsOf(args))
	n2 := in.InternNull("N_x", argsOf([]Value{C("a"), C("b")}))
	if n1 != n2 {
		t.Fatalf("interned nulls are distinct pointers: %p vs %p", n1, n2)
	}
	if !SameValue(n1, n2) {
		t.Fatal("SameValue rejects the canonical null")
	}
	if n1.Key() != NewNull("N_x", C("a"), C("b")).Key() {
		t.Fatalf("interned null key %q diverges from constructor key", n1.Key())
	}

	o1 := in.InternSet(projs, "SKProjs", argsOf(args))
	o2 := in.InternSet(projs, "SKProjs", argsOf([]Value{C("a"), C("b")}))
	if o1 != o2 {
		t.Fatalf("one SetID term interned to two occurrences: %p vs %p", o1, o2)
	}
	if o1.Type != projs || o1.Len() != 0 {
		t.Fatalf("minted occurrence has type %s and %d tuples, want an empty %s", o1.Type, o1.Len(), projs)
	}
	if o1.ID.Key() != NewSetRef("SKProjs", C("a"), C("b")).Key() {
		t.Fatalf("interned SetRef key %q diverges from constructor key", o1.ID.Key())
	}

	// Distinct values stay distinct, and a distinct SetID mints its
	// occurrence last in creation order.
	if in.InternNull("N_y", argsOf(args)) == n1 {
		t.Fatal("distinct null symbols interned to one value")
	}
	o3 := in.InternSet(projs, "SKProjs", argsOf(args[:1]))
	if occs := in.Occurrences(projs); len(occs) != 2 || occs[0] != o1 || occs[1] != o3 {
		t.Fatalf("occurrences %v, want the two minted SetIDs in creation order", occs)
	}
	// SetIDs live in the occurrence table, not the value table.
	if got, want := in.Interned(), 3; got != want {
		t.Fatalf("Interned() = %d, want %d", got, want)
	}
}

// TestInternSetFindsEnsureSet crosses the two ways into the occurrence
// table: Set and EnsureSet find an occurrence InternSet minted, from an
// equal SetRef built afresh, and InternSet finds the occurrences that
// EnsureSet and New created.
func TestInternSetFindsEnsureSet(t *testing.T) {
	cat := orgCat()
	orgs := cat.ByPath(nr.ParsePath("Orgs"))
	projs := cat.ByPath(nr.ParsePath("Orgs.Projects"))
	in := New(cat)
	mgr := in.InternNull("N_m", argsOf([]Value{C("IBM")}))

	minted := in.InternSet(projs, "SKProjects", argsOf([]Value{C("IBM"), mgr, nil}))
	fresh := NewSetRef("SKProjects", C("IBM"), NewNull("N_m", C("IBM")), nil)
	if in.Set(fresh) != minted {
		t.Fatal("Set misses an occurrence InternSet minted")
	}
	if in.EnsureSet(projs, fresh) != minted {
		t.Fatal("EnsureSet created a second occurrence for a SetID InternSet minted")
	}

	ensured := in.EnsureSet(projs, NewSetRef("SKProjects", C("HP")))
	if got := in.InternSet(projs, "SKProjects", argsOf([]Value{C("HP")})); got != ensured {
		t.Fatal("InternSet minted a second occurrence for a SetID EnsureSet created")
	}
	if got := in.InternSet(orgs, TopID(orgs).Fn, argsOf(nil)); got != in.Top(orgs) {
		t.Fatal("InternSet missed the top-level occurrence New created")
	}
	if got := len(in.AllSets()); got != 3 {
		t.Fatalf("%d occurrences, want 3 (Orgs and two Projects)", got)
	}
}

// TestInternHitPathAllocs asserts the warm intern path allocates
// nothing: lookups hash the term and confirm the entries under the
// hash in place, without composing a key. That includes the chase's
// per-assignment path: re-hashing a TermArgs vector and minting nulls
// and SetIDs over it never clones on a hit.
func TestInternHitPathAllocs(t *testing.T) {
	cat := orgCat()
	projs := cat.ByPath(nr.ParsePath("Orgs.Projects"))
	in := New(cat)
	args := []Value{C("a"), C("b"), in.InternNull("N_in", argsOf([]Value{C("z")}))}
	var ta TermArgs
	ta.Set(args)
	in.InternConst("IBM")
	in.InternNull("N_x", &ta)
	in.InternSet(projs, "SKProjs", &ta)

	var sink Value
	if n := testing.AllocsPerRun(100, func() { sink = in.InternConst("IBM") }); n != 0 {
		t.Errorf("InternConst hit allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		ta.Set(args)
		sink = in.InternNull("N_x", &ta)
		sink = in.InternSet(projs, "SKProjs", &ta).ID
	}); n != 0 {
		t.Errorf("InternNull/InternSet hits allocate %.1f/op", n)
	}
	_ = sink
}

// TestInternConcurrent interns overlapping value sets from 8
// goroutines (run under -race in CI): every goroutine must observe the
// same canonical pointers, and the table must end up with exactly the
// distinct-value count. SetIDs are not interned here: InternSet writes
// the occurrence table, which is single-writer like EnsureSet.
func TestInternConcurrent(t *testing.T) {
	in := New(compCat())
	const goroutines = 8
	const distinct = 100 // values per kind; all goroutines intern all of them

	got := make([][]Value, goroutines) // goroutine → interleaved values
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			vals := make([]Value, 0, 2*distinct)
			args := make([]Value, 2) // scratch: the interner must clone it
			for i := 0; i < distinct; i++ {
				// Offset the order per goroutine so insertions overlap.
				k := (i + g*13) % distinct
				s := fmt.Sprintf("v%03d", k)
				args[0], args[1] = C(s), CI(k)
				vals = append(vals,
					in.InternConst(s),
					in.InternNull("N_t", argsOf(args)))
			}
			got[g] = vals
		}(g)
	}
	wg.Wait()

	// Exact table size: distinct consts + nulls, nothing else.
	if gotN, want := in.Interned(), 2*distinct; gotN != want {
		t.Fatalf("Interned() = %d, want %d", gotN, want)
	}
	// Pointer equality across goroutines, order-adjusted.
	for g := 1; g < goroutines; g++ {
		for i := 0; i < distinct; i++ {
			k := (i + g*13) % distinct
			base := got[0][2*k : 2*k+2] // goroutine 0 interned value k at position k
			mine := got[g][2*i : 2*i+2]
			for j := 0; j < 2; j++ {
				if base[j] != mine[j] {
					t.Fatalf("goroutine %d value %d kind %d: non-canonical pointer", g, k, j)
				}
			}
		}
	}
}

// TestInternImmutable asserts interned values are insulated from
// Put-style mutation of caller scratch: the interner clones argument
// slices, so overwriting the scratch afterwards must not change the
// canonical value or its key.
func TestInternImmutable(t *testing.T) {
	cat := orgCat()
	projs := cat.ByPath(nr.ParsePath("Orgs.Projects"))
	in := New(cat)
	scratch := []Value{C("a"), C("b")}
	n := in.InternNull("N_x", argsOf(scratch))
	r := in.InternSet(projs, "SKx", argsOf(scratch)).ID
	wantN, wantR := n.Key(), r.Key()

	scratch[0], scratch[1] = C("MUTATED"), C("MUTATED")
	if n.Key() != wantN || len(n.Args) != 2 || n.Args[0].(Const).S != "a" {
		t.Fatalf("interned null changed under scratch mutation: %v", n)
	}
	if r.Key() != wantR || r.Args[0].(Const).S != "a" {
		t.Fatalf("interned SetRef changed under scratch mutation: %v", r)
	}
	// The mutated scratch now interns a different value.
	if in.InternNull("N_x", argsOf(scratch)) == n {
		t.Fatal("mutated args resolved to the old canonical null")
	}
	if in.InternSet(projs, "SKx", argsOf(scratch)).ID == r {
		t.Fatal("mutated args resolved to the old occurrence")
	}

	// A TermArgs vector retains one clone per Set, shared by every
	// miss over it (nulls and SetIDs alike), insulated the same way.
	var a TermArgs
	scratch[0], scratch[1] = C("p"), C("q")
	a.Set(scratch)
	n1 := in.InternNull("N_s1", &a)
	n2 := in.InternNull("N_s2", &a)
	r1 := in.InternSet(projs, "SK_s", &a).ID
	if &n1.Args[0] != &n2.Args[0] || &n1.Args[0] != &r1.Args[0] {
		t.Fatal("misses over one TermArgs did not share the clone")
	}
	k1, k2 := n1.Key(), n2.Key()
	scratch[0], scratch[1] = C("MUTATED"), C("MUTATED")
	if n1.Key() != k1 || n2.Key() != k2 || n1.Args[0].(Const).S != "p" {
		t.Fatal("TermArgs-interned nulls changed under scratch mutation")
	}
	// A new Set starts a new clone.
	a.Set(scratch)
	if n3 := in.InternNull("N_s1", &a); &n3.Args[0] == &n1.Args[0] {
		t.Fatal("a new Set reused the previous vector's clone")
	}
}

// TestInsertUniqueDedup asserts the clone-on-insert path: a reused
// scratch tuple inserts a copy on a miss, duplicates insert nothing,
// and the arena-backed copy renders the scratch's key.
func TestInsertUniqueDedup(t *testing.T) {
	cat := compCat()
	in := New(cat)
	st := cat.ByPath(nr.ParsePath("Companies"))

	scratch := NewTuple(st)
	scratch.Put("cid", in.InternConst("1"))
	scratch.Put("cname", in.InternConst("IBM"))
	scratch.Put("location", in.InternConst("Almaden"))
	if !in.InsertUnique(in.Top(st), scratch) {
		t.Fatal("first insert reported duplicate")
	}
	if in.InsertUnique(in.Top(st), scratch) {
		t.Fatal("second insert of equal content reported new")
	}
	if got := in.Top(st).Len(); got != 1 {
		t.Fatalf("set has %d tuples, want 1", got)
	}
	stored := in.Top(st).View()[0]
	if stored == scratch {
		t.Fatal("InsertUnique took ownership of the scratch tuple")
	}
	if stored.Key() != scratch.Key() {
		t.Fatalf("stored key %q != scratch key %q", stored.Key(), scratch.Key())
	}
	// Mutating the scratch afterwards must not disturb the stored copy.
	scratch.Put("cname", in.InternConst("Other"))
	if stored.Get("cname").(Const).S != "IBM" {
		t.Fatal("stored tuple shares storage with the scratch")
	}
	if !in.InsertUnique(in.Top(st), scratch) {
		t.Fatal("distinct content reported duplicate")
	}
}
