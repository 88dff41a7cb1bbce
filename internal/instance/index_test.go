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
// of Index and CountDistinct forced under one hash.
func forEachHash(t *testing.T, fn func(t *testing.T, forced bool)) {
	t.Run("real", func(t *testing.T) { fn(t, false) })
	t.Run("forced", func(t *testing.T) {
		prev := hashVector
		hashVector = func([]Value) uint64 { return forcedHash }
		t.Cleanup(func() { hashVector = prev })
		fn(t, true)
	})
}

// TestCountDistinctCollisions: the counter tells vectors apart by
// SameValue, so its uniqueness verdicts and per-list counts are the
// same whether hashes are real or all equal.
func TestCountDistinctCollisions(t *testing.T) {
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
			d, u := CountDistinct(c.tuples, [][]int{c.slots})
			if got := u[0] == 0 && d[0] == len(c.tuples); got != c.want {
				t.Errorf("unique on %v = %v (%d distinct, %d unset of %d), want %v",
					c.slots, got, d[0], u[0], len(c.tuples), c.want)
			}
		}
		// Several lists in one pass.
		d, u := CountDistinct(append(slices.Clone(comp), holey...), [][]int{{cid}, {cname}, {location}, {cname, location}})
		if want := []int{6, 3, 3, 4}; !slices.Equal(d, want) {
			t.Errorf("distinct = %v, want %v", d, want)
		}
		if want := []int{0, 0, 1, 1}; !slices.Equal(u, want) {
			t.Errorf("unset = %v, want %v", u, want)
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

// TestIndexConcurrent probes one shared index and counts over one
// shared tuple list from 8 goroutines, as server sessions over one
// scenario's store do, with the hash caches of the probed and counted
// terms cold: every goroutine sees the serial answers. Run under -race
// (make race-retrieval).
func TestIndexConcurrent(t *testing.T) {
	projs := orgCat().ByPath(nr.ParsePath("Orgs.Projects"))
	const n, managers = 60, 10
	mgr := func(i int) *Null { return NewNull("N_m_p.manager", CI(i%managers), C("x")) }
	rows := func() []*Tuple {
		out := make([]*Tuple, n)
		for i := range out {
			out[i] = NewTuple(projs).Put("pname", CI(i%7)).Put("manager", mgr(i))
		}
		return out
	}
	lists := [][]int{{projs.Slot("pname")}, {projs.Slot("manager")}, {projs.Slot("pname"), projs.Slot("manager")}}
	wantD, wantU := CountDistinct(rows(), lists)
	if !slices.Equal(wantD, []int{7, managers, n}) || !slices.Equal(wantU, []int{0, 0, 0}) {
		t.Fatalf("serial counts %v/%v, want [7 %d %d]/[0 0 0]", wantD, wantU, managers, n)
	}
	x := NewIndex(rows(), lists[1])
	// Built afresh and shared by all goroutines, caches cold.
	counted := rows()
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
			if d, u := CountDistinct(counted, lists); !slices.Equal(d, wantD) || !slices.Equal(u, wantU) {
				t.Errorf("goroutine %d: counts %v/%v, want %v/%v", g, d, u, wantD, wantU)
			}
		}(g)
	}
	wg.Wait()
}
