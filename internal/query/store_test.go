package query

import (
	"fmt"
	"sync"
	"sync/atomic"
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

// TestSharedStoreConcurrent asks 16 goroutines for the statistics of
// both sets of one shared store (server sessions over one scenario):
// every goroutine sees the same blocks, and each set is counted by
// exactly one pass.
func TestSharedStoreConcurrent(t *testing.T) {
	cat := compCat()
	in := compInstance(cat)
	var passes atomic.Int64
	prev := countDistinct
	countDistinct = func(tuples []*instance.Tuple, lists [][]int) ([]int, []int) {
		passes.Add(1)
		return prev(tuples, lists)
	}
	t.Cleanup(func() { countDistinct = prev })
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
	if n := passes.Load(); n != int64(len(sets)) {
		t.Errorf("%d counting passes for %d sets; want one each", n, len(sets))
	}
}

// TestStoreStats sanity-checks the store's statistics: cardinality,
// distinct values and set counts per attribute, computed once.
func TestStoreStats(t *testing.T) {
	in := companies([3]string{"11", "IBM", "NY"}, [3]string{"12", "IBM", ""}, [3]string{"13", "IBM", "SF"}, [3]string{"14", "SBC", "NY"})
	store := NewIndexStore(in)
	st := in.Cat.ByPath(nr.ParsePath("Companies"))
	stats := store.Stats(st)
	if stats.Card != 4 {
		t.Errorf("Card = %d, want 4", stats.Card)
	}
	if stats.Distinct["cid"] != 4 || stats.Distinct["cname"] != 2 || stats.Distinct["location"] != 2 {
		t.Errorf("Distinct = %v", stats.Distinct)
	}
	if stats.Set["cid"] != 4 || stats.Set["cname"] != 4 || stats.Set["location"] != 3 {
		t.Errorf("Set = %v", stats.Set)
	}
	if again := store.Stats(st); again != stats {
		t.Error("Stats recomputed instead of cached")
	}
}

// companies builds a Companies-only instance from (cid, cname,
// location) rows; an empty string leaves the slot unset.
func companies(rows ...[3]string) *instance.Instance {
	cat := compCat()
	st := cat.ByPath(nr.ParsePath("Companies"))
	in := instance.New(cat)
	for _, r := range rows {
		t := instance.NewTuple(st)
		for i, attr := range st.Atoms {
			if r[i] != "" {
				t.Put(attr, instance.C(r[i]))
			}
		}
		in.InsertTop(st, t)
	}
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

// TestIndexStoreUniqueConcurrent asks 8 goroutines for the same and for
// different attribute lists on a cold store, then on the warm one:
// every answer matches a serial pass, the cold store decides each list
// by one counting pass, and the warm one makes none.
func TestIndexStoreUniqueConcurrent(t *testing.T) {
	cat := compCat()
	st := cat.ByPath(nr.ParsePath("Companies"))
	var rows [][3]string
	for i := 0; i < 300; i++ {
		rows = append(rows, [3]string{fmt.Sprint(i), fmt.Sprint("n", i%7), fmt.Sprint("l", i%11)})
	}
	in := companies(rows...)
	lists := [][]string{{"cid"}, {"cname"}, {"location"}, {"cid", "cname"}, {"cname", "location"}, {"cid", "location"}}

	var passes atomic.Int64
	prev := countDistinct
	countDistinct = func(tuples []*instance.Tuple, lists [][]int) ([]int, []int) {
		passes.Add(1)
		return prev(tuples, lists)
	}
	t.Cleanup(func() { countDistinct = prev })

	want := make([]bool, len(lists))
	for i, l := range lists {
		want[i] = NewIndexStore(in).unique(st, l)
	}
	passes.Store(0)
	if want[0] != true || want[1] != false || want[4] != false {
		t.Fatalf("serial verdicts %v: cid must be unique, cname and (cname, location) not", want)
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
					if got := store.unique(st, lists[i]); got != want[i] {
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
	ask() // cold
	if got := passes.Load(); got != int64(len(lists)) {
		t.Errorf("cold store made %d counting passes, want %d (one per list)", got, len(lists))
	}
	ask() // warm
	if got := passes.Load(); got != int64(len(lists)) {
		t.Errorf("warm store made %d more counting passes, want none", got-int64(len(lists)))
	}
}
