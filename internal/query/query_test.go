package query

import (
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

// TestProbeQueryFig3a reproduces the Q_Ie of Fig. 3(a): two Companies
// tuples that disagree on cid and agree on cname and location, each
// with a project.
func TestProbeQueryFig3a(t *testing.T) {
	cat := compCat()
	in := compInstance(cat)
	q := &Query{
		Src: cat,
		Atoms: []Atom{
			{Var: "c1", Set: nr.ParsePath("Companies"), Bind: map[string]string{"cid": "x1", "cname": "n", "location": "l"}},
			{Var: "c2", Set: nr.ParsePath("Companies"), Bind: map[string]string{"cid": "x2", "cname": "n", "location": "l"}},
			{Var: "p1", Set: nr.ParsePath("Projects"), Bind: map[string]string{"cid": "x1"}},
			{Var: "p2", Set: nr.ParsePath("Projects"), Bind: map[string]string{"cid": "x2"}},
		},
		Neq: [][2]string{{"x1", "x2"}},
	}
	m, ok, err := q.First(in, Options{})
	if err != nil || !ok {
		t.Fatalf("no match: %v", err)
	}
	// The only pair agreeing on (cname, location) with projects is
	// companies 11 and 12 (in either order).
	got := map[string]bool{
		m.Tuples[0].Get("cid").String(): true,
		m.Tuples[1].Get("cid").String(): true,
	}
	if !got["11"] || !got["12"] {
		t.Errorf("matched companies %v, want {11,12}", got)
	}
	if m.Values["n"].String() != "IBM" || m.Values["l"].String() != "NY" {
		t.Errorf("values = %v", m.Values)
	}
}

func TestNoMatchWhenPatternAbsent(t *testing.T) {
	cat := compCat()
	in := compInstance(cat)
	// Two companies agreeing on cid but disagreeing on cname: none.
	q := &Query{
		Src: cat,
		Atoms: []Atom{
			{Var: "c1", Set: nr.ParsePath("Companies"), Bind: map[string]string{"cid": "x", "cname": "n1"}},
			{Var: "c2", Set: nr.ParsePath("Companies"), Bind: map[string]string{"cid": "x", "cname": "n2"}},
		},
		Neq: [][2]string{{"n1", "n2"}},
	}
	_, ok, err := q.First(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("found a match for an impossible pattern")
	}
}

func TestEvalAllAndLimit(t *testing.T) {
	cat := compCat()
	in := compInstance(cat)
	q := &Query{
		Src: cat,
		Atoms: []Atom{
			{Var: "c", Set: nr.ParsePath("Companies"), Bind: map[string]string{"cname": "n"}},
		},
	}
	all, err := q.Eval(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 4 {
		t.Errorf("Eval returned %d matches, want 4", len(all))
	}
	two, err := q.Eval(in, Options{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(two) != 2 {
		t.Errorf("Limit=2 returned %d matches", len(two))
	}
}

func TestSelfJoinViaSharedValueVar(t *testing.T) {
	cat := compCat()
	in := compInstance(cat)
	// Companies and projects joined on cid.
	q := &Query{
		Src: cat,
		Atoms: []Atom{
			{Var: "c", Set: nr.ParsePath("Companies"), Bind: map[string]string{"cid": "x"}},
			{Var: "p", Set: nr.ParsePath("Projects"), Bind: map[string]string{"cid": "x", "pname": "pn"}},
		},
	}
	ms, err := q.Eval(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Errorf("join returned %d matches, want 3", len(ms))
	}
	for _, m := range ms {
		if !instance.SameValue(m.Tuples[0].Get("cid"), m.Tuples[1].Get("cid")) {
			t.Error("join equality violated")
		}
	}
}

func TestNestedAtoms(t *testing.T) {
	cat := nr.MustCatalog(nr.MustSchema("DBLP", nr.Record(
		nr.F("Authors", nr.SetOf(nr.Record(
			nr.F("name", nr.StringType()),
			nr.F("Papers", nr.SetOf(nr.Record(nr.F("title", nr.StringType())))),
		))),
	)))
	authors := cat.ByPath(nr.ParsePath("Authors"))
	papers := cat.ByPath(nr.ParsePath("Authors.Papers"))
	in := instance.New(cat)
	r1 := instance.NewSetRef("SKPapers", instance.C("alice"))
	r2 := instance.NewSetRef("SKPapers", instance.C("bob"))
	in.InsertTop(authors, instance.NewTuple(authors).Put("name", instance.C("alice")).Put("Papers", r1))
	in.InsertTop(authors, instance.NewTuple(authors).Put("name", instance.C("bob")).Put("Papers", r2))
	in.Insert(papers, r1, instance.NewTuple(papers).Put("title", instance.C("X")))
	in.Insert(papers, r1, instance.NewTuple(papers).Put("title", instance.C("Y")))
	in.Insert(papers, r2, instance.NewTuple(papers).Put("title", instance.C("X")))

	// Two distinct papers of the same author.
	q := &Query{
		Src: cat,
		Atoms: []Atom{
			{Var: "a", Set: nr.ParsePath("Authors"), Bind: map[string]string{"name": "n"}},
			{Var: "p1", Parent: "a", Field: "Papers", Bind: map[string]string{"title": "t1"}},
			{Var: "p2", Parent: "a", Field: "Papers", Bind: map[string]string{"title": "t2"}},
		},
		Neq: [][2]string{{"t1", "t2"}},
	}
	ms, err := q.Eval(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// alice has (X,Y) and (Y,X); bob has none.
	if len(ms) != 2 {
		t.Fatalf("%d matches, want 2", len(ms))
	}
	for _, m := range ms {
		if m.Values["n"].String() != "alice" {
			t.Errorf("matched author %s, want alice", m.Values["n"])
		}
	}
}

func TestValidationErrors(t *testing.T) {
	cat := compCat()
	cases := []struct {
		name string
		q    *Query
	}{
		{"empty var", &Query{Src: cat, Atoms: []Atom{{Set: nr.ParsePath("Companies")}}}},
		{"dup var", &Query{Src: cat, Atoms: []Atom{
			{Var: "a", Set: nr.ParsePath("Companies")},
			{Var: "a", Set: nr.ParsePath("Projects")}}}},
		{"unknown set", &Query{Src: cat, Atoms: []Atom{{Var: "a", Set: nr.ParsePath("Nope")}}}},
		{"unknown parent", &Query{Src: cat, Atoms: []Atom{{Var: "a", Parent: "z", Field: "Papers"}}}},
		{"bad field", &Query{Src: cat, Atoms: []Atom{
			{Var: "a", Set: nr.ParsePath("Companies")},
			{Var: "b", Parent: "a", Field: "Nope"}}}},
		{"bad attr", &Query{Src: cat, Atoms: []Atom{
			{Var: "a", Set: nr.ParsePath("Companies"), Bind: map[string]string{"zzz": "x"}}}}},
	}
	in := compInstance(cat)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.q.Eval(in, Options{}); err == nil {
				t.Error("invalid query accepted")
			}
		})
	}
}

// TestBudget: a search that examines searchBudget candidates without
// finishing stops with ErrBudget, and one that finishes sooner returns
// its matches. Three scans of 200 Companies are an 8M-candidate cross
// product; no company has a location, so the last scan's binding fails
// on every candidate and no match is recorded.
func TestBudget(t *testing.T) {
	cat := compCat()
	in := locatedFirst(200, 0)
	q := &Query{
		Src: cat,
		Atoms: []Atom{
			{Var: "a", Set: nr.ParsePath("Companies"), Bind: map[string]string{"cid": "x1"}},
			{Var: "b", Set: nr.ParsePath("Companies"), Bind: map[string]string{"cid": "x2"}},
			{Var: "c", Set: nr.ParsePath("Companies"), Bind: map[string]string{"location": "l"}},
		},
	}
	ms, err := q.Eval(in, Options{})
	if err != ErrBudget {
		t.Errorf("expected ErrBudget, got %v", err)
	}
	if len(ms) != 0 {
		t.Errorf("impossible pattern returned %d matches", len(ms))
	}
	// Binding cid instead, the first five matches come well within the
	// budget.
	q.Atoms[2].Bind = map[string]string{"cid": "x3"}
	ms, err = q.Eval(in, Options{Limit: 5})
	if err != nil || len(ms) != 5 {
		t.Errorf("within budget: %d matches, err=%v", len(ms), err)
	}
}

func itoa(i int) string {
	return string(rune('a'+i/26)) + string(rune('a'+i%26))
}

func TestPartialTupleNeverMatchesBoundAttr(t *testing.T) {
	cat := compCat()
	st := cat.ByPath(nr.ParsePath("Companies"))
	in := instance.New(cat)
	in.InsertTop(st, instance.NewTuple(st).Put("cid", instance.C("1"))) // cname unset
	q := &Query{
		Src:   cat,
		Atoms: []Atom{{Var: "c", Set: nr.ParsePath("Companies"), Bind: map[string]string{"cname": "n"}}},
	}
	ms, err := q.Eval(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Error("tuple with unset attribute matched a binding on it")
	}
}

func TestPlanOrderPreservesResultOrder(t *testing.T) {
	cat := compCat()
	in := compInstance(cat)
	// The join-friendly order is Companies first (Projects references
	// it), but the atoms are given the other way round; the match must
	// still report Projects at index 0.
	q := &Query{
		Src: cat,
		Atoms: []Atom{
			{Var: "p", Set: nr.ParsePath("Projects"), Bind: map[string]string{"cid": "x", "pname": "pn"}},
			{Var: "c", Set: nr.ParsePath("Companies"), Bind: map[string]string{"cid": "x"}, Pin: map[string]instance.Value{"cname": instance.C("SBC")}},
		},
	}
	ms, err := q.Eval(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("%d matches, want 1 (SBC's WiFi project)", len(ms))
	}
	if got := ms[0].Tuples[0].Get("pname").String(); got != "WiFi" {
		t.Errorf("Tuples[0] should be the Projects atom, got %s", ms[0].Tuples[0])
	}
	if got := ms[0].Tuples[1].Get("cname").String(); got != "SBC" {
		t.Errorf("Tuples[1] should be the Companies atom, got %s", ms[0].Tuples[1])
	}
}

func TestPinSelectsAndIndexes(t *testing.T) {
	cat := compCat()
	in := compInstance(cat)
	q := &Query{
		Src: cat,
		Atoms: []Atom{
			{Var: "c", Set: nr.ParsePath("Companies"), Pin: map[string]instance.Value{"location": instance.C("NY")}},
		},
	}
	ms, err := q.Eval(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Errorf("pin on NY matched %d companies, want 3", len(ms))
	}
	q.Atoms[0].Pin["location"] = instance.C("Mars")
	if ms, _ := q.Eval(in, Options{}); len(ms) != 0 {
		t.Error("pin on absent value matched")
	}
	// Pinning an unknown attribute is rejected.
	q.Atoms[0].Pin = map[string]instance.Value{"zzz": instance.C("1")}
	if _, err := q.Eval(in, Options{}); err == nil {
		t.Error("pin on unknown attribute accepted")
	}
}

// TestEvalCatalogLayout: the planned kernel resolves slot positions on
// the query's catalog, so a structurally identical catalog object
// evaluates exactly as the instance's own, while one that lays a set
// out differently is refused rather than read at the wrong slots.
func TestEvalCatalogLayout(t *testing.T) {
	in := compInstance(compCat())
	want, err := joinQuery(in.Cat).Eval(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := joinQuery(compCat()).Eval(in, Options{})
	if err != nil {
		t.Fatalf("identical layout: %v", err)
	}
	if orderedMatches(got) != orderedMatches(want) {
		t.Fatalf("identical layout returned different matches")
	}
	swapped := nr.MustCatalog(nr.MustSchema("CompDB", nr.Record(
		nr.F("Companies", nr.SetOf(nr.Record(
			nr.F("cname", nr.StringType()),
			nr.F("cid", nr.IntType()),
			nr.F("location", nr.StringType()),
		))),
		nr.F("Projects", nr.SetOf(nr.Record(
			nr.F("pid", nr.StringType()),
			nr.F("pname", nr.StringType()),
			nr.F("cid", nr.IntType()),
		))),
	)))
	if _, err := joinQuery(swapped).Eval(in, Options{}); err == nil {
		t.Fatal("a differently laid-out catalog was evaluated; want an error")
	}
}
