package instance

import (
	"fmt"
	"sync"
	"testing"

	"muse/internal/nr"
)

// TestInternCanonical asserts the core interning contract: equal
// values obtained through Intern* share one canonical pointer, so
// SameValue decides them by pointer comparison.
func TestInternCanonical(t *testing.T) {
	in := New(compCat())

	c1 := in.InternConst("IBM")
	c2 := in.InternConst("IBM")
	if c1 != c2 {
		t.Fatalf("interned consts differ: %v vs %v", c1, c2)
	}
	if c1.(Const).S != "IBM" {
		t.Fatalf("interned const holds %q", c1.(Const).S)
	}

	args := []Value{C("a"), C("b")}
	n1 := in.InternNull("N_x", args)
	n2 := in.InternNull("N_x", []Value{C("a"), C("b")})
	if n1 != n2 {
		t.Fatalf("interned nulls are distinct pointers: %p vs %p", n1, n2)
	}
	if !SameValue(n1, n2) {
		t.Fatal("SameValue rejects the canonical null")
	}
	if n1.Key() != NewNull("N_x", C("a"), C("b")).Key() {
		t.Fatalf("interned null key %q diverges from constructor key", n1.Key())
	}

	r1 := in.InternSetRef("SKProjs", args)
	r2 := in.InternSetRef("SKProjs", []Value{C("a"), C("b")})
	if r1 != r2 {
		t.Fatalf("interned SetRefs are distinct pointers: %p vs %p", r1, r2)
	}
	if r1.Key() != NewSetRef("SKProjs", C("a"), C("b")).Key() {
		t.Fatalf("interned SetRef key %q diverges from constructor key", r1.Key())
	}

	// Distinct values stay distinct.
	if in.InternNull("N_y", args) == n1 {
		t.Fatal("distinct null symbols interned to one value")
	}
	if got, want := in.Interned(), 4; got != want {
		t.Fatalf("Interned() = %d, want %d", got, want)
	}
}

// TestInternHitPathAllocs asserts the warm intern path allocates
// nothing: keys are composed in the table's own buffer and the map is
// probed without materializing a string.
func TestInternHitPathAllocs(t *testing.T) {
	in := New(compCat())
	args := []Value{C("a"), C("b")}
	in.InternConst("IBM")
	in.InternNull("N_x", args)
	in.InternSetRef("SKProjs", args)

	var sink Value
	if n := testing.AllocsPerRun(100, func() { sink = in.InternConst("IBM") }); n != 0 {
		t.Errorf("InternConst hit allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { sink = in.InternNull("N_x", args) }); n != 0 {
		t.Errorf("InternNull hit allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(100, func() { sink = in.InternSetRef("SKProjs", args) }); n != 0 {
		t.Errorf("InternSetRef hit allocates %.1f/op", n)
	}
	_ = sink
}

// TestInternConcurrent interns overlapping value sets from 8
// goroutines (run under -race in CI): every goroutine must observe the
// same canonical pointers, and the table must end up with exactly the
// distinct-value count.
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
			vals := make([]Value, 0, 3*distinct)
			args := make([]Value, 2) // scratch: the interner must clone it
			for i := 0; i < distinct; i++ {
				// Offset the order per goroutine so insertions overlap.
				k := (i + g*13) % distinct
				s := fmt.Sprintf("v%03d", k)
				args[0], args[1] = C(s), CI(k)
				vals = append(vals,
					in.InternConst(s),
					in.InternNull("N_t", args),
					in.InternSetRef("SKt", args))
			}
			got[g] = vals
		}(g)
	}
	wg.Wait()

	// Exact table size: distinct consts + nulls + setrefs, nothing else.
	if gotN, want := in.Interned(), 3*distinct; gotN != want {
		t.Fatalf("Interned() = %d, want %d", gotN, want)
	}
	// Pointer equality across goroutines, order-adjusted.
	for g := 1; g < goroutines; g++ {
		for i := 0; i < distinct; i++ {
			k := (i + g*13) % distinct
			base := got[0][3*k : 3*k+3] // goroutine 0 interned value k at position k
			mine := got[g][3*i : 3*i+3]
			for j := 0; j < 3; j++ {
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
	in := New(compCat())
	scratch := []Value{C("a"), C("b")}
	n := in.InternNull("N_x", scratch)
	r := in.InternSetRef("SKx", scratch)
	wantN, wantR := n.Key(), r.Key()

	scratch[0], scratch[1] = C("MUTATED"), C("MUTATED")
	if n.Key() != wantN || len(n.Args) != 2 || n.Args[0].(Const).S != "a" {
		t.Fatalf("interned null changed under scratch mutation: %v", n)
	}
	if r.Key() != wantR || r.Args[0].(Const).S != "a" {
		t.Fatalf("interned SetRef changed under scratch mutation: %v", r)
	}
	// The mutated scratch now interns a different value.
	if in.InternNull("N_x", scratch) == n {
		t.Fatal("mutated args resolved to the old canonical null")
	}

	// The shared-args variant retains one clone per round, insulated
	// the same way.
	var owned []Value
	scratch[0], scratch[1] = C("p"), C("q")
	n1 := in.InternNullShared("N_s1", scratch, &owned)
	n2 := in.InternNullShared("N_s2", scratch, &owned)
	if &n1.Args[0] != &n2.Args[0] {
		t.Fatal("shared-args misses of one round did not share the clone")
	}
	k1, k2 := n1.Key(), n2.Key()
	scratch[0], scratch[1] = C("MUTATED"), C("MUTATED")
	if n1.Key() != k1 || n2.Key() != k2 || n1.Args[0].(Const).S != "p" {
		t.Fatal("shared-args interned nulls changed under scratch mutation")
	}
}

// TestInsertUniqueDedup asserts the clone-on-insert path: a reused
// scratch tuple inserts a copy on a miss, duplicates insert nothing,
// and the arena-backed copy carries the memoized canonical key.
func TestInsertUniqueDedup(t *testing.T) {
	cat := compCat()
	in := New(cat)
	st := cat.ByPath(nr.ParsePath("Companies"))

	scratch := NewTuple(st)
	scratch.Put("cid", in.InternConst("1"))
	scratch.Put("cname", in.InternConst("IBM"))
	scratch.Put("location", in.InternConst("Almaden"))
	if !in.InsertTopUnique(st, scratch) {
		t.Fatal("first insert reported duplicate")
	}
	if in.InsertTopUnique(st, scratch) {
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
	if !in.InsertTopUnique(st, scratch) {
		t.Fatal("distinct content reported duplicate")
	}
}
