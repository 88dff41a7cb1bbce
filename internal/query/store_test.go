package query

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"muse/internal/instance"
	"muse/internal/nr"
	"muse/internal/obs"
)

// wideInstance fills Companies with n tuples sharing cname/location.
func wideInstance(cat *nr.Catalog, n int) *instance.Instance {
	in := instance.New(cat)
	for i := 0; i < n; i++ {
		in.MustInsertVals("Companies", itoa(i), "C", "L")
	}
	return in
}

// locatedFirst builds n Companies (cid, "C") of which only the first
// `located` have a location. A scan binding location rejects every
// other tuple at its first slot, so a search can examine searchBudget
// candidates quickly while recording few matches.
func locatedFirst(n, located int) *instance.Instance {
	rows := make([][3]string, n)
	for i := range rows {
		rows[i] = [3]string{itoa(i), "C", ""}
		if i < located {
			rows[i][2] = "L"
		}
	}
	return companies(rows...)
}

// TestBudgetPartialResults: a search that exhausts the budget returns
// ErrBudget together with the matches found before it, and they are
// the deterministic scan prefix. Each of 2000 Companies pairs with the
// only located one, so the 4M-candidate pair scan records one match
// per outer tuple until the budget stops it.
func TestBudgetPartialResults(t *testing.T) {
	const n = 2000
	in := locatedFirst(n, 1)
	q := &Query{
		Src: compCat(),
		Atoms: []Atom{
			{Var: "c1", Set: nr.ParsePath("Companies"), Bind: map[string]string{"cid": "x1"}},
			{Var: "c2", Set: nr.ParsePath("Companies"), Bind: map[string]string{"location": "l"}},
		},
	}
	ms, err := q.Eval(in, Options{})
	if err != ErrBudget {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	if len(ms) == 0 || len(ms) >= n {
		t.Errorf("partial results = %d matches, want some but not all %d", len(ms), n)
	}
	// The partial prefix is the deterministic scan prefix.
	for i, m := range ms {
		got := [2]string{m.Tuples[0].Get("cid").String(), m.Tuples[1].Get("cid").String()}
		if want := [2]string{itoa(i), itoa(0)}; got != want {
			t.Fatalf("match %d is the pair %v, want the scan prefix's %v", i, got, want)
		}
	}
}

// TestFirstNotFoundOnBudget: an impossible pattern over a 2000×2000
// cross product (no company has a location) exhausts the budget before
// the space; First reports not-found and surfaces the error.
func TestFirstNotFoundOnBudget(t *testing.T) {
	q := &Query{
		Src: compCat(),
		Atoms: []Atom{
			{Var: "c1", Set: nr.ParsePath("Companies"), Bind: map[string]string{"cid": "x1"}},
			{Var: "c2", Set: nr.ParsePath("Companies"), Bind: map[string]string{"location": "l"}},
		},
	}
	m, ok, err := q.First(locatedFirst(2000, 0), Options{})
	if ok {
		t.Fatalf("found %v for an impossible pattern", m)
	}
	if err != ErrBudget {
		t.Errorf("err = %v, want ErrBudget", err)
	}
}

// TestLimitStopsBacktrackingEarly: Limit returns exactly the first
// Limit matches of the deterministic search order — no extra matches
// are appended past the quota.
func TestLimitStopsBacktrackingEarly(t *testing.T) {
	cat := compCat()
	in := wideInstance(cat, 600)
	q := &Query{
		Src:   cat,
		Atoms: []Atom{{Var: "c", Set: nr.ParsePath("Companies"), Bind: map[string]string{"cid": "x"}}},
	}
	ms, err := q.Eval(in, Options{Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("Limit=3 returned %d matches", len(ms))
	}
	for i, m := range ms {
		if got := m.Tuples[0].Get("cid").String(); got != itoa(i) {
			t.Errorf("match %d is tuple %s, want %s", i, got, itoa(i))
		}
	}
}

// joinQuery is the Fig. 3(a) probe pattern used by several tests.
func joinQuery(cat *nr.Catalog) *Query {
	return &Query{
		Src: cat,
		Atoms: []Atom{
			{Var: "c1", Set: nr.ParsePath("Companies"), Bind: map[string]string{"cid": "x1", "cname": "n", "location": "l"}},
			{Var: "c2", Set: nr.ParsePath("Companies"), Bind: map[string]string{"cid": "x2", "cname": "n", "location": "l"}},
			{Var: "p1", Set: nr.ParsePath("Projects"), Bind: map[string]string{"cid": "x1"}},
			{Var: "p2", Set: nr.ParsePath("Projects"), Bind: map[string]string{"cid": "x2"}},
		},
		Neq: [][2]string{{"x1", "x2"}},
	}
}

// canonicalMatches renders a match set order-independently, for
// multiset comparison across evaluation modes.
func canonicalMatches(ms []Match) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		s := ""
		for _, t := range m.Tuples {
			s += t.Key() + "|"
		}
		out[i] = s
	}
	sort.Strings(out)
	return out
}

// orderedMatches renders a match list order-sensitively, for
// determinism comparison across repeated runs.
func orderedMatches(ms []Match) string {
	s := ""
	for _, m := range ms {
		for _, t := range m.Tuples {
			s += t.Key() + "|"
		}
		s += "\n"
	}
	return s
}

// TestPlannedMatchesNaive: the cost-based planned evaluation returns
// exactly the matches of the naive (given-order, scan-only, check-all
// inequalities) reference semantics, and repeated planned runs return
// them in an identical order (the planner consults no map-iteration
// order).
func TestPlannedMatchesNaive(t *testing.T) {
	cat := compCat()
	in := compInstance(cat)
	queries := map[string]*Query{
		"fig3a": joinQuery(cat),
		"join": {Src: cat, Atoms: []Atom{
			{Var: "c", Set: nr.ParsePath("Companies"), Bind: map[string]string{"cid": "x"}},
			{Var: "p", Set: nr.ParsePath("Projects"), Bind: map[string]string{"cid": "x", "pname": "pn"}},
		}},
		"pinned": {Src: cat, Atoms: []Atom{
			{Var: "p", Set: nr.ParsePath("Projects"), Bind: map[string]string{"cid": "x", "pname": "pn"}},
			{Var: "c", Set: nr.ParsePath("Companies"), Bind: map[string]string{"cid": "x"},
				Pin: map[string]instance.Value{"cname": instance.C("IBM"), "location": instance.C("NY")}},
		}},
	}
	for name, q := range queries {
		t.Run(name, func(t *testing.T) {
			naive, err := q.EvalNaive(in)
			if err != nil {
				t.Fatal(err)
			}
			planned, err := q.Eval(in, Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, want := canonicalMatches(planned), canonicalMatches(naive)
			if len(got) != len(want) {
				t.Fatalf("planned returned %d matches, naive %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("match sets differ at %d:\nplanned %q\nnaive   %q", i, got[i], want[i])
				}
			}
			first := orderedMatches(planned)
			for run := 0; run < 5; run++ {
				again, err := q.Eval(in, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if orderedMatches(again) != first {
					t.Fatalf("run %d returned a different match order", run)
				}
			}
		})
	}
}

// TestSharedStoreConcurrent exercises concurrent evaluations over one
// shared store (server sessions over one scenario): every evaluation
// sees the same results and each index is built exactly once.
func TestSharedStoreConcurrent(t *testing.T) {
	cat := compCat()
	in := compInstance(cat)
	reg := obs.NewRegistry()
	store := NewIndexStore(in).Observe(reg)
	q := joinQuery(cat)
	want, err := q.Eval(in, Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	baseline := reg.Get(obs.MIndexBuilds)
	var wg sync.WaitGroup
	errs := make([]string, 16)
	for g := 0; g < 16; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			ms, err := q.Eval(in, Options{Store: store})
			if err != nil {
				errs[g] = err.Error()
				return
			}
			if orderedMatches(ms) != orderedMatches(want) {
				errs[g] = "results differ from the serial baseline"
			}
		}()
	}
	wg.Wait()
	for g, e := range errs {
		if e != "" {
			t.Errorf("goroutine %d: %s", g, e)
		}
	}
	if got := reg.Get(obs.MIndexBuilds); got != baseline {
		t.Errorf("concurrent evaluations built %d extra indexes; want reuse of the %d existing", got-baseline, baseline)
	}
}

// TestStoreStats sanity-checks the planner's statistics source.
func TestStoreStats(t *testing.T) {
	cat := compCat()
	in := compInstance(cat)
	store := NewIndexStore(in)
	st := cat.ByPath(nr.ParsePath("Companies"))
	stats := store.Stats(st)
	if stats.Card != 4 {
		t.Errorf("Card = %d, want 4", stats.Card)
	}
	if stats.Distinct["cid"] != 4 || stats.Distinct["cname"] != 2 || stats.Distinct["location"] != 2 {
		t.Errorf("Distinct = %v", stats.Distinct)
	}
	if again := store.Stats(st); again != stats {
		t.Error("Stats recomputed instead of cached")
	}
}

// TestCompositeIndexProbe: with two attributes pinned, the planner
// probes one composite index rather than intersecting two single
// ones; the composite index is registered in the store.
func TestCompositeIndexProbe(t *testing.T) {
	cat := compCat()
	in := compInstance(cat)
	reg := obs.NewRegistry()
	store := NewIndexStore(in).Observe(reg)
	q := &Query{
		Src: cat,
		Atoms: []Atom{
			{Var: "c", Set: nr.ParsePath("Companies"),
				Pin: map[string]instance.Value{"cname": instance.C("IBM"), "location": instance.C("NY")}},
		},
	}
	ms, err := q.Eval(in, Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Errorf("composite pin matched %d companies, want 2 (11, 12)", len(ms))
	}
	if got := reg.Get(obs.MIndexBuilds); got != 1 {
		t.Errorf("built %d indexes, want exactly the one composite", got)
	}
	if reg.Get(obs.MIndexProbes) == 0 {
		t.Error("no index probes recorded")
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
