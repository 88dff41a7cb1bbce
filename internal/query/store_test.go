package query

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"muse/internal/instance"
	"muse/internal/nr"
)

func compCat() *nr.Catalog {
	return nr.MustCatalog(nr.MustSchema("CompDB", nr.Record(
		nr.F("Companies", nr.SetOf(nr.Record(
			nr.F("cid", nr.IntType()),
			nr.F("cname", nr.StringType()),
			nr.F("location", nr.StringType()),
		))),
		nr.F("Projects", nr.SetOf(nr.Record(
			nr.F("pid", nr.StringType()),
			nr.F("pname", nr.StringType()),
			nr.F("cid", nr.IntType()),
		))),
	)))
}

func compInstance(cat *nr.Catalog) *instance.Instance {
	in := instance.New(cat)
	in.MustInsertVals("Companies", "11", "IBM", "NY")
	in.MustInsertVals("Companies", "12", "IBM", "NY")
	in.MustInsertVals("Companies", "13", "IBM", "SF")
	in.MustInsertVals("Companies", "14", "SBC", "NY")
	in.MustInsertVals("Projects", "p1", "DB", "11")
	in.MustInsertVals("Projects", "p2", "Web", "12")
	in.MustInsertVals("Projects", "p4", "WiFi", "14")
	return in
}

// unique decides one attribute list as UniqueAttrs does past its
// single-atom check.
func (s *IndexStore) unique(st *nr.SetType, attrs []string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.decide(st, s.facts(st), attrs)
}

// TestSharedStoreConcurrent asks 16 goroutines for the statistics of
// both sets of one shared store (server sessions over one scenario):
// every goroutine sees the same blocks, and each set is counted by
// exactly one pass.
func TestSharedStoreConcurrent(t *testing.T) {
	cat := compCat()
	in := compInstance(cat)
	store := NewIndexStore(in)
	sets := cat.TopLevel()
	got := make([][]*SetStats, 16)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range sets {
				got[g] = append(got[g], store.Stats(sets[(g+k)%len(sets)]))
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for k := range sets {
			if got[g][k] != store.Stats(sets[(g+k)%len(sets)]) {
				t.Errorf("goroutine %d got another statistics block for %s", g, sets[(g+k)%len(sets)])
			}
		}
	}
	if n := store.Passes().Stats; n != len(sets) {
		t.Errorf("%d statistics passes for %d sets; want one each", n, len(sets))
	}
}

// TestStoreStats sanity-checks the store's statistics: cardinality,
// distinct values and set counts per atom, computed once.
func TestStoreStats(t *testing.T) {
	in := companies([3]string{"11", "IBM", "NY"}, [3]string{"12", "IBM", ""}, [3]string{"13", "IBM", "SF"}, [3]string{"14", "SBC", "NY"})
	store := NewIndexStore(in)
	st := in.Cat.ByPath(nr.ParsePath("Companies"))
	stats := store.Stats(st)
	if stats.Card != 4 {
		t.Errorf("Card = %d, want 4", stats.Card)
	}
	// Atoms in order: cid, cname, location.
	if !slices.Equal(stats.Distinct, []int{4, 2, 2}) {
		t.Errorf("Distinct = %v, want [4 2 2]", stats.Distinct)
	}
	if !slices.Equal(stats.Set, []int{4, 4, 3}) {
		t.Errorf("Set = %v, want [4 4 3]", stats.Set)
	}
	if again := store.Stats(st); again != stats || store.Passes().Stats != 1 {
		t.Error("Stats recomputed instead of cached")
	}
}

// fill inserts (three-atom) rows into the top-level set at path; an
// empty string leaves the slot unset.
func fill(in *instance.Instance, path string, rows ...[3]string) {
	st := in.Cat.ByPath(nr.ParsePath(path))
	for _, r := range rows {
		t := instance.NewTuple(st)
		for i, attr := range st.Atoms {
			if r[i] != "" {
				t.Put(attr, instance.C(r[i]))
			}
		}
		in.InsertTop(st, t)
	}
}

// companies builds a Companies-only instance from (cid, cname,
// location) rows; an empty string leaves the slot unset.
func companies(rows ...[3]string) *instance.Instance {
	in := instance.New(compCat())
	fill(in, "Companies", rows...)
	return in
}

// TestUniqueAttrs: a shared attribute that is unique on its own is
// reported alone, the first in the set's atom order; otherwise the
// whole list when it is unique together, which an unset slot breaks.
func TestUniqueAttrs(t *testing.T) {
	keyed := compInstance(compCat())
	st := keyed.Cat.ByPath(nr.ParsePath("Companies"))
	store := NewIndexStore(keyed)
	for _, c := range []struct {
		attrs []string
		want  string
	}{
		{[]string{"cid", "cname", "location"}, "[cid]"},
		{[]string{"cname", "location"}, "[]"},
		{[]string{"cname"}, "[]"},
		{nil, "[]"},
	} {
		if got := fmt.Sprint(store.UniqueAttrs(st, c.attrs)); got != c.want {
			t.Errorf("UniqueAttrs(%v) = %s, want %s", c.attrs, got, c.want)
		}
	}
	composite := companies(
		[3]string{"1", "A", "X"}, [3]string{"1", "B", "Y"},
		[3]string{"2", "A", "Y"}, [3]string{"2", "B", "X"},
	)
	if got := fmt.Sprint(NewIndexStore(composite).UniqueAttrs(st, []string{"cname", "location"})); got != "[cname location]" {
		t.Errorf("composite key: UniqueAttrs = %s, want [cname location]", got)
	}
	unset := companies(
		[3]string{"1", "A", "X"}, [3]string{"1", "B", "Y"},
		[3]string{"2", "A", "Y"}, [3]string{"2", "B", ""},
	)
	if got := NewIndexStore(unset).UniqueAttrs(st, []string{"cname", "location"}); got != nil {
		t.Errorf("a list one tuple leaves unset is not unique: UniqueAttrs = %v", got)
	}
}

// concurrentInstance holds 300 Companies whose cid is unique and 300
// Projects none of whose atoms is: of their 14 non-empty atom lists,
// exactly 5 are decided neither by the statistics nor by another list's
// verdict. Companies' (cname, location) repeats; every pair of Projects'
// atoms repeats, and the three together are unique.
func concurrentInstance() (*instance.Instance, [][]string) {
	var comps, projs [][3]string
	for i := range 300 {
		comps = append(comps, [3]string{fmt.Sprint(i), fmt.Sprint("n", i%7), fmt.Sprint("l", i%11)})
		projs = append(projs, [3]string{fmt.Sprint("p", i%13), fmt.Sprint("n", i%17), fmt.Sprint(i % 7)})
	}
	in := instance.New(compCat())
	fill(in, "Companies", comps...)
	fill(in, "Projects", projs...)
	var lists [][]string
	for _, st := range in.Cat.TopLevel() {
		for bits := 1; bits < 1<<len(st.Atoms); bits++ {
			var l []string
			for i, a := range st.Atoms {
				if bits&(1<<i) != 0 {
					l = append(l, a)
				}
			}
			slices.Sort(l)
			lists = append(lists, append([]string{st.Name}, l...))
		}
	}
	return in, lists
}

// TestIndexStoreUniqueConcurrent asks 8 goroutines for the same and for
// different attribute lists on a cold store, then on the warm one:
// every answer matches a fresh store's, the cold store counts each set
// once and runs one uniqueness pass per list nothing else decides, and
// the warm one runs no pass.
func TestIndexStoreUniqueConcurrent(t *testing.T) {
	in, lists := concurrentInstance()
	const undecided = 5
	set := func(l []string) *nr.SetType { return in.Cat.ByPath(nr.ParsePath(l[0])) }
	want := make([]bool, len(lists))
	for i, l := range lists {
		want[i] = NewIndexStore(in).unique(set(l), l[1:])
	}
	if fmt.Sprint(want) != "[true false true false true false true false false false false false false true]" {
		t.Fatalf("fresh-store verdicts %v: cid must be unique, every Projects pair repeated and the triple unique", want)
	}

	store := NewIndexStore(in)
	ask := func() {
		var wg sync.WaitGroup
		errs := make(chan string, 8*len(lists))
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				// Goroutines start at different lists, so some race for
				// the same list while others ask different ones.
				for k := range lists {
					i := (g + k) % len(lists)
					if got := store.unique(set(lists[i]), lists[i][1:]); got != want[i] {
						errs <- fmt.Sprintf("goroutine %d: unique(%v) = %v, want %v", g, lists[i], got, want[i])
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	}
	cold := Passes{Stats: 2, Unique: undecided}
	ask()
	if got := store.Passes(); got != cold {
		t.Errorf("cold store ran %+v passes, want %+v (one per set, one per undecided list)", got, cold)
	}
	ask()
	if got := store.Passes(); got != cold {
		t.Errorf("warm store ran %+v passes in all, want no more than the cold %+v", got, cold)
	}
}

// TestPassAllocs: once the instance's counter pool is warm, a
// uniqueness pass allocates nothing, and a statistics pass allocates
// only the block it returns: the set's facts and their counts.
func TestPassAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled counters at random")
	}
	in, _ := concurrentInstance()
	st := in.Cat.ByPath(nr.ParsePath("Projects"))
	store := NewIndexStore(in)
	store.Stats(st)
	for _, list := range [][]string{{"cid", "pid"}, {"cid", "pid", "pname"}} {
		before := store.Passes().Unique
		n := testing.AllocsPerRun(50, func() {
			store.mu.Lock()
			// Forget the verdicts, so each run is a pass.
			f := store.sets[st]
			f.unique, f.repeated = f.unique[:0], f.repeated[:0]
			store.decide(st, f, list)
			store.mu.Unlock()
		})
		if n != 0 {
			t.Errorf("a uniqueness pass on %v allocates %v times, want 0", list, n)
		}
		if passes := store.Passes().Unique - before; passes != 51 {
			t.Errorf("%d uniqueness passes on %v, want one per run (51)", passes, list)
		}
	}
	n := testing.AllocsPerRun(50, func() {
		store.mu.Lock()
		delete(store.sets, st)
		store.facts(st)
		store.mu.Unlock()
	})
	if n != 2 {
		t.Errorf("a statistics pass allocates %v times, want 2 (the facts and their counts)", n)
	}
}
