package query

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"muse/internal/instance"
	"muse/internal/nr"
	"muse/internal/obs"
)

// evalRefute evaluates q planned, with metrics, through a fresh store
// counting on the same registry, and requires the match set of the
// naive reference. It returns the metrics and the match count.
func evalRefute(t *testing.T, q *Query, in *instance.Instance) (*obs.Obs, int) {
	t.Helper()
	naive, err := q.EvalNaive(in)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	store := NewIndexStore(in).Observe(o.Reg)
	planned, err := q.Eval(in, Options{Store: store, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	got, want := canonicalMatches(planned), canonicalMatches(naive)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("planned matches differ from naive:\nplanned %q\nnaive   %q", got, want)
	}
	return o, len(planned)
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

// pairQuery is the two-copy probe over Companies: both copies bind the
// shared attributes to one variable each, the rest to copy-specific
// variables, and the probed attribute must differ.
func pairQuery(cat *nr.Catalog, shared []string, probe string) *Query {
	c1 := Atom{Var: "c1", Set: nr.ParsePath("Companies"), Bind: map[string]string{}}
	c2 := Atom{Var: "c2", Set: nr.ParsePath("Companies"), Bind: map[string]string{}}
	for _, attr := range cat.ByPath(nr.ParsePath("Companies")).Atoms {
		c1.Bind[attr], c2.Bind[attr] = attr+"1", attr+"2"
	}
	for _, attr := range shared {
		c1.Bind[attr], c2.Bind[attr] = attr, attr
	}
	return &Query{Src: cat, Atoms: []Atom{c1, c2}, Neq: [][2]string{{probe + "1", probe + "2"}}}
}

// TestRefuteTwoCopyProbe: the copies agree on a project's unique pid,
// so they match one project, hence one cid, hence (cid is unique) one
// company, and the probed cname can never differ. The second merge
// needs the first, so the rule must repeat. The evaluation returns no
// match without scanning a row, probing an index or building one, and
// its span says why.
func TestRefuteTwoCopyProbe(t *testing.T) {
	cat := compCat()
	in := compInstance(cat)
	q := &Query{
		Src: cat,
		Atoms: []Atom{
			{Var: "c1", Set: nr.ParsePath("Companies"), Bind: map[string]string{"cid": "x1", "cname": "n1", "location": "l"}},
			{Var: "p1", Set: nr.ParsePath("Projects"), Bind: map[string]string{"pid": "k", "cid": "x1"}},
			{Var: "c2", Set: nr.ParsePath("Companies"), Bind: map[string]string{"cid": "x2", "cname": "n2", "location": "l"}},
			{Var: "p2", Set: nr.ParsePath("Projects"), Bind: map[string]string{"pid": "k", "cid": "x2"}},
		},
		Neq: [][2]string{{"n1", "n2"}},
	}
	o, n := evalRefute(t, q, in)
	if n != 0 {
		t.Fatalf("%d matches, want 0", n)
	}
	if got := o.Reg.Get(obs.MQueryRefuted); got != 1 {
		t.Errorf("refuted counter = %d, want 1", got)
	}
	if got := o.Reg.Get(obs.MQueryRowsScanned); got != 0 {
		t.Errorf("refuted evaluation scanned %d rows", got)
	}
	if b, p := o.Reg.Get(obs.MIndexBuilds), o.Reg.Get(obs.MIndexProbes); b != 0 || p != 0 {
		t.Errorf("refuted evaluation touched indexes: %d builds, %d probes", b, p)
	}

	// With detail on, the span carries the proof.
	ctx := obs.ContextWithTrace(context.Background(), obs.NewTraceContext().WithDetail(true))
	if _, err := q.Eval(in, Options{Ctx: ctx, Obs: o}); err != nil {
		t.Fatal(err)
	}
	recs := o.Tr.Finished()
	attrs := recs[len(recs)-1].AttrMap()
	const want = "refuted: n1 != n2; Projects unique on (pid); Companies unique on (cid)"
	if attrs["refuted"] != true || attrs["scanned"] != int64(0) || attrs["explain"] != want {
		t.Errorf("span attrs = %v, want refuted, scanned 0 and explain %q", attrs, want)
	}
}

// TestRefuteCompositeKey: no single attribute is unique, but the pair
// (cname, location) is, so copies agreeing on both match one company.
func TestRefuteCompositeKey(t *testing.T) {
	in := companies(
		[3]string{"1", "A", "X"}, [3]string{"1", "B", "Y"},
		[3]string{"2", "A", "Y"}, [3]string{"2", "B", "X"},
	)
	o, n := evalRefute(t, pairQuery(in.Cat, []string{"cname", "location"}, "cid"), in)
	if n != 0 || o.Reg.Get(obs.MQueryRefuted) != 1 {
		t.Errorf("%d matches, %d refuted; want 0 matches, refuted", n, o.Reg.Get(obs.MQueryRefuted))
	}
}

// TestRefuteKeepsSearching lists queries the rule must not refute: each
// is searched and returns the naive reference's matches.
func TestRefuteKeepsSearching(t *testing.T) {
	cat := compCat()
	authors := nr.MustCatalog(nr.MustSchema("DBLP", nr.Record(
		nr.F("Authors", nr.SetOf(nr.Record(
			nr.F("name", nr.StringType()),
			nr.F("Papers", nr.SetOf(nr.Record(nr.F("pid", nr.StringType()), nr.F("title", nr.StringType()), nr.F("year", nr.StringType())))),
		))),
	)))
	nested := func() *instance.Instance {
		at := authors.ByPath(nr.ParsePath("Authors"))
		pt := authors.ByPath(nr.ParsePath("Authors.Papers"))
		in := instance.New(authors)
		for _, a := range []struct{ name, title string }{{"alice", "X"}, {"bob", "Z"}} {
			ref := instance.NewSetRef("SKPapers", instance.C(a.name))
			in.InsertTop(at, instance.NewTuple(at).Put("name", instance.C(a.name)).Put("Papers", ref))
			in.Insert(pt, ref, instance.NewTuple(pt).Put("pid", instance.C("k1")).Put("title", instance.C(a.title)).Put("year", instance.C("2000")))
		}
		return in
	}
	// Each copy pins its own company by the unique cid; IBM NY (11)
	// and IBM SF (13) differ on location, so the probe has a match.
	pinned := pairQuery(cat, nil, "location")
	for i, cid := range []string{"11", "13"} {
		a := &pinned.Atoms[i]
		delete(a.Bind, "cid")
		a.Pin = map[string]instance.Value{"cid": instance.C(cid)}
	}
	unbound := pairQuery(cat, []string{"cid"}, "cname")
	unbound.Neq = [][2]string{{"cname1", "z"}, {"z", "z"}}

	cases := []struct {
		name  string
		in    *instance.Instance
		q     *Query
		match bool // the naive reference has a match
	}{
		// cname repeats (IBM), so two companies may share it.
		{"duplicate", compInstance(cat), pairQuery(cat, []string{"cname"}, "cid"), true},
		// (cname, location) would be unique but one company leaves
		// location unset.
		{"nil slot", companies(
			[3]string{"1", "A", "X"}, [3]string{"1", "B", "Y"},
			[3]string{"2", "A", "Y"}, [3]string{"2", "B", ""},
		), pairQuery(cat, []string{"cname", "location"}, "cid"), false},
		// The copies share (pid, year) only through nested atoms.
		{"nested", nested(), &Query{
			Src: authors,
			Atoms: []Atom{
				{Var: "a1", Set: nr.ParsePath("Authors"), Bind: map[string]string{"name": "n1"}},
				{Var: "p1", Parent: "a1", Field: "Papers", Bind: map[string]string{"pid": "k", "title": "t1", "year": "y"}},
				{Var: "a2", Set: nr.ParsePath("Authors"), Bind: map[string]string{"name": "n2"}},
				{Var: "p2", Parent: "a2", Field: "Papers", Bind: map[string]string{"pid": "k", "title": "t2", "year": "y"}},
			},
			Neq: [][2]string{{"t1", "t2"}},
		}, true},
		// Both copies pin the unique cid instead of binding it, each to
		// its own value.
		{"pinned", compInstance(cat), pinned, true},
		// The copies share the unique cid, but no atom binds z, so the
		// inequalities on it are never checked.
		{"unbound neq side", compInstance(cat), unbound, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o, n := evalRefute(t, c.q, c.in)
			if got := o.Reg.Get(obs.MQueryRefuted); got != 0 {
				t.Errorf("refuted %d evaluations, want 0", got)
			}
			if (n > 0) != c.match {
				t.Errorf("%d matches, want a match: %v", n, c.match)
			}
		})
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
