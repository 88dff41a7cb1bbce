package core

import (
	"context"
	"strings"
	"testing"

	"muse/internal/instance"
	"muse/internal/nr"
	"muse/internal/obs"
	"muse/internal/parser"
	"muse/internal/scenarios"
)

// TestWitnessFig3a: the Q_Ie of Fig. 3(a), two companies that agree on
// cname and location and differ on cid, each with a project. Its
// witness is the least pair in firing order, companies 11 and 12 with
// their projects, and the span names it.
func TestWitnessFig3a(t *testing.T) {
	m := refuteMappings(t)["m"]
	o, span, _, ie := retrieve(t, m, ibm(m.Src), exprs("c.cname", "c.location"), exprs("p.pid", "p.pname", "p.cid"), "c.cid")
	const want = "witness: rows 1 and 2 of 3 assignments of m agree on 2 classes"
	if o.Reg.Get(obs.MQueryRowsReturned) != 1 || span.AttrMap()["explain"] != want {
		t.Errorf("span %v; want one witness and explain %q", span.AttrMap(), want)
	}
	if got := ie.String(); !strings.Contains(got, "11") || !strings.Contains(got, "12") || !strings.Contains(got, "p1") || !strings.Contains(got, "p2") || strings.Contains(got, "14") {
		t.Errorf("example holds\n%s\nwant companies 11 and 12 with projects p1 and p2", got)
	}
}

// TestWitnessAbsentPattern: once the two companies of Fig. 3(a) that
// agree on cname and location have projects of one name, no pair
// differs on pname, and the scan proves that probe empty.
func TestWitnessAbsentPattern(t *testing.T) {
	m := refuteMappings(t)["m"]
	same := companies(m.Src, [][3]string{{"11", "IBM", "NY"}, {"12", "IBM", "NY"}, {"14", "SBC", "NY"}},
		[3]string{"p1", "DB", "11"}, [3]string{"p2", "DB", "12"}, [3]string{"p4", "WiFi", "14"})
	o, span, _, _ := retrieve(t, m, same, exprs("c.cname", "c.location"), exprs("c.cid", "p.pid", "p.cid"), "p.pname")
	if o.Reg.Get(obs.MQueryDecided) != 1 || o.Reg.Get(obs.MQueryRowsReturned) != 0 || !strings.HasPrefix(span.AttrMap()["explain"].(string), "decided: ") {
		t.Errorf("span %v; want the probe decided empty", span.AttrMap())
	}
}

// TestWitnessNestedExample: a witness row's nested tuple goes into the
// occurrence its parent's set field references, so each author of the
// example holds exactly the paper of its own row: alice's X and bob's
// first paper Z, the least pair, not his W.
func TestWitnessNestedExample(t *testing.T) {
	m := refuteMappings(t)["nested"]
	at := m.Src.ByPath(nr.ParsePath("Authors"))
	pt := m.Src.ByPath(nr.ParsePath("Authors.Papers"))
	in := instance.New(m.Src)
	for _, a := range []struct{ name, titles string }{{"alice", "X"}, {"bob", "Z W"}} {
		ref := instance.NewSetRef("SKPapers", instance.C(a.name))
		in.InsertTop(at, instance.NewTuple(at).Put("name", instance.C(a.name)).Put("Papers", ref))
		for _, title := range strings.Fields(a.titles) {
			in.Insert(pt, ref, instance.NewTuple(pt).Put("pid", instance.C("k1")).Put("title", instance.C(title)).Put("year", instance.C("2000")))
		}
	}
	_, _, _, ie := retrieve(t, m, in, exprs("p.pid", "p.year"), exprs("a.name"), "p.title")
	got := map[string]string{}
	for _, a := range ie.Top(at).View() {
		for _, p := range ie.Set(a.Get("Papers").(*instance.SetRef)).View() {
			got[a.Get("name").String()] += p.Get("title").String()
		}
	}
	if len(got) != 2 || got["alice"] != "X" || got["bob"] != "Z" {
		t.Errorf("example nests %v; want alice with X and bob with Z", got)
	}
}

// TestTableSkipsUnsetAtoms: an assignment that leaves an atom unset
// realizes no pattern, so the table drops it: company 2, whose location
// is unset, pairs with no company on cname, and the probe is empty.
func TestTableSkipsUnsetAtoms(t *testing.T) {
	m := refuteMappings(t)["m1"]
	in := companies(m.Src, [][3]string{{"1", "A", "X"}, {"2", "A", ""}, {"3", "B", "Y"}})
	o, _, w, _ := retrieve(t, m, in, exprs("c.cname"), exprs("c.location"), "c.cid")
	if table := w.tables.byName["m1"]; o.Reg.Get(obs.MQueryDecided) != 1 || table == nil || table.len() != 2 {
		t.Errorf("decided %d; want the probe decided empty on a table of the 2 companies that set every atom", o.Reg.Get(obs.MQueryDecided))
	}
}

// TestRetrievalCatalogLayout: a real instance of another catalog is
// read where it lays every set of the for clause out as the mapping's
// source does, and otherwise shows the synthetic example.
func TestRetrievalCatalogLayout(t *testing.T) {
	m := refuteMappings(t)["m1"]
	for _, c := range []struct {
		schema string
		real   bool
	}{
		{"schema CompDB { Companies: set of record { cid: int, cname: string, location: string } }", true},
		{"schema CompDB { Companies: set of record { cname: string, cid: int, location: string } }", false},
	} {
		doc, err := parser.Parse(c.schema)
		if err != nil {
			t.Fatal(err)
		}
		in := instance.New(doc.Schemas["CompDB"])
		for _, r := range [][2]string{{"1", "A"}, {"2", "A"}} {
			if err := in.InsertRow("Companies", instance.Row{"cid": r[0], "cname": r[1], "location": "X"}); err != nil {
				t.Fatal(err)
			}
		}
		w := NewGroupingWizard(nil, in)
		tb, err := w.questionTableau(m)
		if err != nil {
			t.Fatal(err)
		}
		differ := exprs("c.cid")
		if !probeSetup(tb, m.Poss(), exprs("c.cname"), nil, differ[0], nil) {
			t.Fatal("probe unconstructible")
		}
		if _, real := w.obtainExample(w.context(), tb, differ, &SKStats{}); real != c.real {
			t.Errorf("%s: real example %v, want %v", c.schema, real, c.real)
		}
	}
}

// TestRetrievalDeadContext: a retrieval under a dead context scans
// nothing and opens no span, and the question shows its synthetic
// example.
func TestRetrievalDeadContext(t *testing.T) {
	m := refuteMappings(t)["m1"]
	in := companies(m.Src, [][3]string{{"1", "A", "X"}, {"2", "A", "X"}})
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	w := NewGroupingWizard(nil, in)
	w.Obs = obs.New()
	tb, err := w.questionTableau(m)
	if err != nil {
		t.Fatal(err)
	}
	differ := exprs("c.cid", "c.location")
	if !probeSetup(tb, m.Poss(), exprs("c.cname"), nil, differ[0], differ[1:]) {
		t.Fatal("probe unconstructible")
	}
	if _, real := w.obtainExample(dead, tb, differ, &SKStats{}); real || w.Obs.Reg.Get(obs.MQueryEvals) != 0 || len(w.Obs.Tr.Finished()) != 0 {
		t.Errorf("a dead context retrieved (real %v, %d evals, %d spans); want nothing", real, w.Obs.Reg.Get(obs.MQueryEvals), len(w.Obs.Tr.Finished()))
	}
}

// TestRetrievalNilObsIdentical: instrumentation changes no example.
// A Fig. 1 design with keys off (so probes reach the scans) shows the
// same examples with and without obs, and counts one returned row per
// real example.
func TestRetrievalNilObsIdentical(t *testing.T) {
	design := func(o *obs.Obs) (string, *GroupingWizard) {
		f := scenarios.NewFigure1(false)
		w := NewGroupingWizard(nil, f.Source)
		w.Obs = o
		var b strings.Builder
		rec := designerFunc(func(q *GroupingQuestion) (int, error) {
			b.WriteString(q.Source.String())
			return 2, nil
		})
		if _, err := w.DesignSK(f.M2, "SKProjects", rec); err != nil {
			t.Fatal(err)
		}
		return b.String(), w
	}
	plain, _ := design(nil)
	o := obs.New()
	instrumented, w := design(o)
	var real int64
	for _, sk := range w.Stats.SKs {
		real += int64(sk.RealExamples)
	}
	if plain != instrumented || real == 0 || o.Reg.Get(obs.MQueryRowsReturned) != real {
		t.Errorf("instrumented examples differ: %v; %d real examples, %d rows returned", plain != instrumented, real, o.Reg.Get(obs.MQueryRowsReturned))
	}
}

// designerFunc answers grouping questions with a function.
type designerFunc func(*GroupingQuestion) (int, error)

func (f designerFunc) ChooseScenario(q *GroupingQuestion) (int, error) { return f(q) }
