package instance

import (
	"slices"
	"sync"
	"testing"

	"muse/internal/nr"
)

// companyRows builds Companies tuples from (cid, cname, location) rows,
// in order; an empty string leaves the slot unset.
func companyRows(rows ...[3]string) []*Tuple {
	st := compCat().ByPath(nr.ParsePath("Companies"))
	out := make([]*Tuple, len(rows))
	for i, r := range rows {
		out[i] = NewTuple(st)
		for slot, s := range r {
			if s != "" {
				out[i].PutSlot(slot, C(s))
			}
		}
	}
	return out
}

// forEachHash runs fn with the real vector hash, then with every vector
// of Index and the counter forced under one hash.
func forEachHash(t *testing.T, fn func(t *testing.T, forced bool)) {
	t.Run("real", func(t *testing.T) { fn(t, false) })
	t.Run("forced", func(t *testing.T) {
		prev := hashVector
		hashVector = func([]Value) uint64 { return forcedHash }
		t.Cleanup(func() { hashVector = prev })
		fn(t, true)
	})
}

// TestCounterCollisions: the counter tells vectors apart by SameValue,
// so its uniqueness verdicts and counts are the same whether hashes are
// real or all equal, and a uniqueness pass agrees with a counting one.
func TestCounterCollisions(t *testing.T) {
	const cid, cname, location = 0, 1, 2
	keyed := companyRows([3]string{"1", "A", "X"}, [3]string{"1", "B", "Y"}, [3]string{"2", "A", "Y"}, [3]string{"2", "B", "X"})
	comp := companyRows([3]string{"11", "IBM", "NY"}, [3]string{"12", "IBM", "NY"}, [3]string{"13", "IBM", "SF"}, [3]string{"14", "SBC", "NY"})
	holey := companyRows([3]string{"1", "A", "X"}, [3]string{"2", "A", ""})
	forEachHash(t, func(t *testing.T, _ bool) {
		// A list is unique when every tuple sets it and no two agree.
		for _, c := range []struct {
			tuples []*Tuple
			slots  []int
			want   bool
		}{
			{keyed, []int{cname, location}, true},
			{keyed, []int{cid, cname}, true},
			{keyed, []int{cid, location}, true},
			{keyed, []int{cname}, false},
			{comp, []int{cname, location}, false}, // IBM NY twice
			{comp, []int{cid}, true},
			{holey, []int{cname, location}, false}, // location unset
		} {
			d, u := Distinct(c.tuples, c.slots)
			if got := u == 0 && d == len(c.tuples); got != c.want {
				t.Errorf("distinct on %v = %d, unset %d of %d; unique must be %v", c.slots, d, u, len(c.tuples), c.want)
			}
			if got := Unique(c.tuples, c.slots); got != c.want {
				t.Errorf("Unique on %v = %v, want %v", c.slots, got, c.want)
			}
		}
		all := append(slices.Clone(comp), holey...)
		for i, slots := range [][]int{{cid}, {cname}, {location}, {cname, location}} {
			wantD, wantU := []int{6, 3, 3, 4}[i], []int{0, 0, 1, 1}[i]
			if d, u := Distinct(all, slots); d != wantD || u != wantU {
				t.Errorf("on %v: %d distinct, %d unset; want %d, %d", slots, d, u, wantD, wantU)
			}
		}
	})
}

// TestIndexCollisions: a bucket holds every tuple whose values equal
// the probe, in set order, and any other tuple in it only collides in
// hash; under one forced hash that is every indexed tuple. Tuples with
// an unset indexed slot are never indexed, and a probe with an unset
// value finds nothing.
func TestIndexCollisions(t *testing.T) {
	tuples := companyRows(
		[3]string{"11", "IBM", "NY"}, [3]string{"12", "IBM", ""}, [3]string{"13", "IBM", "SF"},
		[3]string{"14", "SBC", "NY"}, [3]string{"15", "IBM", "NY"},
	)
	slots := []int{1, 2}
	forEachHash(t, func(t *testing.T, forced bool) {
		x := NewIndex(tuples, slots)
		if x.Len() != 4 {
			t.Errorf("Len = %d, want the 4 tuples that set cname and location", x.Len())
		}
		for _, probe := range [][]Value{{C("IBM"), C("NY")}, {C("IBM"), C("SF")}, {C("SBC"), C("NY")}, {C("SBC"), C("SF")}} {
			matching := func(ts []*Tuple) []*Tuple {
				return slices.DeleteFunc(slices.Clone(ts), func(tp *Tuple) bool {
					return !SameValue(tp.ValAt(1), probe[0]) || !SameValue(tp.ValAt(2), probe[1])
				})
			}
			bucket := x.Lookup(probe)
			if want := matching(tuples); !slices.Equal(matching(bucket), want) {
				t.Errorf("probe %v: bucket %v does not hold exactly %v in set order", probe, bucket, want)
			}
			last := -1
			for _, tp := range bucket {
				i := slices.Index(tuples, tp)
				if i <= last || tp.ValAt(2) == nil {
					t.Errorf("probe %v: bucket %v is out of set order or holds an unset slot", probe, bucket)
				}
				last = i
			}
			if forced && len(bucket) != x.Len() {
				t.Errorf("probe %v: forced hash gave a bucket of %d, want all %d indexed tuples", probe, len(bucket), x.Len())
			}
		}
		if b := x.Lookup([]Value{C("IBM"), nil}); b != nil {
			t.Errorf("probe with an unset value found %v", b)
		}
	})
}

// TestIndexConcurrent probes one shared index from 8 goroutines, as
// server sessions over one scenario's instance do, with the hash caches
// of the probed terms cold: every goroutine sees the serial buckets.
// Run under -race (make race-retrieval).
func TestIndexConcurrent(t *testing.T) {
	projs := orgCat().ByPath(nr.ParsePath("Orgs.Projects"))
	const n, managers = 60, 10
	mgr := func(i int) *Null { return NewNull("N_m_p.manager", CI(i%managers), C("x")) }
	rows := make([]*Tuple, n)
	for i := range rows {
		rows[i] = NewTuple(projs).Put("pname", CI(i%7)).Put("manager", mgr(i))
	}
	x := NewIndex(rows, []int{projs.Slot("manager")})
	// Built afresh and shared by all goroutines, caches cold.
	probes := make([]*Null, managers)
	for i := range probes {
		probes[i] = mgr(i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range probes {
				p := probes[(k+g)%managers]
				bucket := x.Lookup([]Value{p})
				if len(bucket) != n/managers || !SameValue(bucket[0].Get("manager"), p) {
					t.Errorf("goroutine %d: bucket of %s holds %d tuples, want %d", g, p, len(bucket), n/managers)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCounterConcurrent counts over one shared tuple list from 8
// goroutines at once, each pass on a counter of its own from the pool,
// with real hashes and with every hash forced equal: every goroutine
// sees the serial counts and verdicts. Run under -race (make
// race-retrieval).
func TestCounterConcurrent(t *testing.T) {
	projs := orgCat().ByPath(nr.ParsePath("Orgs.Projects"))
	const n, managers = 60, 10
	rows := make([]*Tuple, n)
	for i := range rows {
		rows[i] = NewTuple(projs).Put("pname", CI(i%7)).Put("manager", NewNull("N_m_p.manager", CI(i%managers), C("x")))
	}
	lists := [][]int{{projs.Slot("pname")}, {projs.Slot("manager")}, {projs.Slot("pname"), projs.Slot("manager")}}
	want := []int{7, managers, n}
	forEachHash(t, func(t *testing.T, _ bool) {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := range lists {
					i := (k + g) % len(lists)
					if d, u := Distinct(rows, lists[i]); d != want[i] || u != 0 {
						t.Errorf("goroutine %d: %d distinct, %d unset on %v; want %d, 0", g, d, u, lists[i], want[i])
					}
					if got := Unique(rows, lists[i]); got != (want[i] == n) {
						t.Errorf("goroutine %d: Unique on %v = %v, want %v", g, lists[i], got, want[i] == n)
					}
				}
			}(g)
		}
		wg.Wait()
	})
}

// TestVecMapCollisions: a VecMap tells keys apart by SameValue, so Get,
// Put and Delete act on one key alone whether hashes are real or all
// equal, and whether its entries are inline or in its map. Keys that
// differ only in a nil slot or only in length are distinct, and
// deleting an entry, the first under a hash included, leaves every
// other entry reachable.
func TestVecMapCollisions(t *testing.T) {
	// key(i) builds the i-th key afresh, so no lookup can succeed by
	// pointer identity.
	key := func(i int) []Value {
		return [][]Value{
			{},
			{nil},
			{nil, nil},
			{C("a")},
			{C("a"), nil},
			{nil, C("a")},
			{C("a"), C("a")},
			{NewNull("N", C("a"))},
			{NewNull("N", C("a"), nil)},
			{NewNull("N", nil)},
			{NewNull("N")},
			{NewSetRef("N", C("a"))},
			{C("a"), NewNull("N", C("a"))},
		}[i]
	}
	forEachHash(t, func(t *testing.T, _ bool) {
		// smallVec keys stay inline. Thirteen move into the map, where
		// the first entry under the forced hash is key(smallVec-1), the
		// last inline entry, and key(0) is an overflow entry.
		for _, n := range []int{smallVec, 13} {
			var m VecMap[int]
			check := func(stage string, want func(i int) (int, bool)) {
				t.Helper()
				for i := 0; i < n; i++ {
					got, ok := m.Get(key(i))
					if w, wok := want(i); got != w || ok != wok {
						t.Fatalf("%d keys, %s: Get(%v) = %d, %v; want %d, %v", n, stage, key(i), got, ok, w, wok)
					}
				}
			}
			for i := 0; i < n; i++ {
				m.Put(key(i), i)
			}
			check("after Put", func(i int) (int, bool) { return i, true })
			for i := 0; i < n; i += 2 {
				m.Put(key(i), 100+i)
			}
			check("after overwriting the even keys", func(i int) (int, bool) {
				if i%2 == 0 {
					return 100 + i, true
				}
				return i, true
			})
			m.Delete(key(smallVec - 1))
			m.Delete(key(0))
			m.Delete([]Value{C("absent")})
			check("after Delete", func(i int) (int, bool) {
				switch {
				case i == 0 || i == smallVec-1:
					return 0, false
				case i%2 == 0:
					return 100 + i, true
				}
				return i, true
			})
			m.Put(key(0), 0)
			m.Put(key(smallVec-1), 7)
			for i := 0; i < n; i++ {
				m.Delete(key(i))
			}
			check("after deleting every key", func(int) (int, bool) { return 0, false })
			// Put keeps its own copy of the key.
			scratch := []Value{C("x")}
			m.Put(scratch, 1)
			scratch[0] = C("y")
			if v, ok := m.Get([]Value{C("x")}); !ok || v != 1 {
				t.Fatalf("%d keys: Get after reusing the key slice = %d, %v; want 1, true", n, v, ok)
			}
			if _, ok := m.Get(scratch); ok {
				t.Fatalf("%d keys: reusing the key slice put a second key", n)
			}
		}
	})
}
