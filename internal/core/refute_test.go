package core

import (
	"context"
	"strings"
	"testing"

	"muse/internal/instance"
	"muse/internal/mapping"
	"muse/internal/nr"
	"muse/internal/obs"
	"muse/internal/parser"
	"muse/internal/query"
)

// refuteDoc declares the sources of the refutation tests and a mapping
// over each: m joins every company to its projects, m1 reads companies
// alone, and nested reads each author's papers.
const refuteDoc = `
schema CompDB {
  Companies: set of record { cid: int, cname: string, location: string },
  Projects:  set of record { pid: string, pname: string, cid: int }
}
schema DBLP {
  Authors: set of record {
    name: string,
    Papers: set of record { pid: string, title: string, year: string }
  }
}
schema OrgDB {
  Orgs: set of record { oname: string, Projects: set of record { pname: string } }
}
mapping m {
  for c in CompDB.Companies, p in CompDB.Projects
  satisfy p.cid = c.cid
  exists o in OrgDB.Orgs, p1 in o.Projects
  where c.cname = o.oname and p.pname = p1.pname
    and o.Projects = SKProjects(c.cid, c.cname, c.location, p.pid, p.pname, p.cid)
}
mapping m1 {
  for c in CompDB.Companies
  exists o in OrgDB.Orgs
  where c.cname = o.oname and o.Projects = SKProjects(c.cid, c.cname, c.location)
}
mapping nested {
  for a in DBLP.Authors, p in a.Papers
  exists o in OrgDB.Orgs, p1 in o.Projects
  where a.name = o.oname and p.title = p1.pname
    and o.Projects = SKProjects(a.name, p.pid, p.title, p.year)
}
`

// refuteMappings parses refuteDoc's mappings by name.
func refuteMappings(t *testing.T) map[string]*mapping.Mapping {
	t.Helper()
	doc, err := parser.Parse(refuteDoc)
	if err != nil {
		t.Fatal(err)
	}
	ms := make(map[string]*mapping.Mapping)
	for _, m := range doc.Mappings {
		ms[m.Name] = m
	}
	return ms
}

// companies builds an instance of the companies' source from (cid,
// cname, location) rows, where an empty string leaves the slot unset,
// and (pid, pname, cid) project rows.
func companies(cat *nr.Catalog, rows [][3]string, projects ...[3]string) *instance.Instance {
	in := instance.New(cat)
	for _, r := range rows {
		row := instance.Row{}
		for i, attr := range []string{"cid", "cname", "location"} {
			if r[i] != "" {
				row[attr] = r[i]
			}
		}
		if err := in.InsertRow("Companies", row); err != nil {
			panic(err)
		}
	}
	for _, p := range projects {
		in.MustInsertVals("Projects", p[0], p[1], p[2])
	}
	return in
}

// ibm is the companies of Fig. 1's source, where IBM names three
// companies and NY locates three, with their projects.
func ibm(cat *nr.Catalog) *instance.Instance {
	return companies(cat,
		[][3]string{{"11", "IBM", "NY"}, {"12", "IBM", "NY"}, {"13", "IBM", "SF"}, {"14", "SBC", "NY"}},
		[3]string{"p1", "DB", "11"}, [3]string{"p2", "Web", "12"}, [3]string{"p4", "WiFi", "14"})
}

// exprs parses "var.attr" strings.
func exprs(ss ...string) []mapping.Expr {
	out := make([]mapping.Expr, len(ss))
	for i, s := range ss {
		v, attr, _ := strings.Cut(s, ".")
		out[i] = mapping.E(v, attr)
	}
	return out
}

// retrieve sets up m's probe on probe that agrees on confirmed and
// leaves decidedOut free, and obtains its example from real as the
// wizard does, with metrics and a trace that asks for detail. It
// requires the example to be real exactly when the brute-force
// reference finds a witness, and returns the metrics, the retrieval's
// query.eval span, the wizard and the example.
func retrieve(t *testing.T, m *mapping.Mapping, real *instance.Instance, confirmed, decidedOut []mapping.Expr, probe string) (*obs.Obs, obs.SpanRecord, *GroupingWizard, *instance.Instance) {
	t.Helper()
	o := obs.New()
	w := NewGroupingWizard(nil, real)
	w.Obs = o
	w.Ctx = obs.ContextWithTrace(context.Background(), obs.NewTraceContext().WithDetail(true))
	tb, err := w.questionTableau(m)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[mapping.Expr]bool)
	for _, e := range decidedOut {
		out[e] = true
	}
	differ := exprs(probe)
	if !probeSetup(tb, m.Poss(), confirmed, out, differ[0], nil) {
		t.Fatalf("probe %s is unconstructible", probe)
	}
	want := bruteWitness(tb, tb.differPairs(differ), bruteRows(m, real))
	var stats SKStats
	ie, isReal := w.obtainExample(w.context(), tb, differ, &stats)
	if isReal != (want != nil) {
		t.Errorf("the example is real: %v, but the reference's witness is %v", isReal, want)
	}
	var span obs.SpanRecord
	for _, rec := range o.Tr.Finished() {
		if rec.Name == obs.SpanQueryEval {
			span = rec
		}
	}
	if got := o.Reg.Get(obs.MQueryEvals); got != 1 || span.Name == "" {
		t.Fatalf("%d query evaluations, span %q; want one query.eval", got, span.Name)
	}
	return o, span, w, ie
}

// TestRefuteTwoCopyProbe: the copies agree on a project's unique pid,
// so they hold one project, hence one cid, hence (cid is unique) one
// company, and the probed cname can never differ. The second merge
// needs the first, so the rule must repeat. The retrieval gets its
// synthetic example without scanning a row or building the assignment
// table, and its span
// says why, naming the classes by their IDs.
func TestRefuteTwoCopyProbe(t *testing.T) {
	m := refuteMappings(t)["m"]
	o, span, w, _ := retrieve(t, m, ibm(m.Src), exprs("p.pid", "c.location"), exprs("c.cid", "p.pname", "p.cid"), "c.cname")
	reg := o.Reg
	if got := reg.Get(obs.MQueryRefuted); got != 1 {
		t.Errorf("refuted counter = %d, want 1", got)
	}
	if got := reg.Get(obs.MQueryRowsScanned); got != 0 {
		t.Errorf("refuted retrieval scanned %d rows", got)
	}
	if len(w.tables.byName) != 0 || reg.Get(obs.MQueryDecided) != 0 {
		t.Error("refuted retrieval reached the assignment table")
	}
	attrs := span.AttrMap()
	const want = "refuted: x_c_cname_1 != x_c_cname_2; Projects unique on (pid); Companies unique on (cid)"
	if attrs["refuted"] != true || attrs["scanned"] != int64(0) || attrs["explain"] != want {
		t.Errorf("span attrs = %v, want refuted, scanned 0 and explain %q", attrs, want)
	}
}

// TestRefuteCompositeKey: no single attribute is unique, but the pair
// (cname, location) is, so copies agreeing on both hold one company.
func TestRefuteCompositeKey(t *testing.T) {
	m := refuteMappings(t)["m1"]
	in := companies(m.Src, [][3]string{{"1", "A", "X"}, {"1", "B", "Y"}, {"2", "A", "Y"}, {"2", "B", "X"}})
	o, span, _, _ := retrieve(t, m, in, exprs("c.cname", "c.location"), nil, "c.cid")
	const want = "refuted: x_c_cid_1 != x_c_cid_2; Companies unique on (cname, location)"
	if o.Reg.Get(obs.MQueryRefuted) != 1 || span.AttrMap()["explain"] != want {
		t.Errorf("refuted %d, span %v; want refuted with explain %q", o.Reg.Get(obs.MQueryRefuted), span.AttrMap(), want)
	}
}

// TestRefuteKeepsSearching lists probes the rule must not refute: each
// is scanned, and its example is real exactly when the brute-force
// reference finds a witness.
func TestRefuteKeepsSearching(t *testing.T) {
	ms := refuteMappings(t)
	m1, nested := ms["m1"], ms["nested"]
	papers := func() *instance.Instance {
		at := nested.Src.ByPath(nr.ParsePath("Authors"))
		pt := nested.Src.ByPath(nr.ParsePath("Authors.Papers"))
		in := instance.New(nested.Src)
		for _, a := range []struct{ name, title string }{{"alice", "X"}, {"bob", "Z"}} {
			ref := instance.NewSetRef("SKPapers", instance.C(a.name))
			in.InsertTop(at, instance.NewTuple(at).Put("name", instance.C(a.name)).Put("Papers", ref))
			in.Insert(pt, ref, instance.NewTuple(pt).Put("pid", instance.C("k1")).Put("title", instance.C(a.title)).Put("year", instance.C("2000")))
		}
		return in
	}
	cases := []struct {
		name                  string
		m                     *mapping.Mapping
		in                    *instance.Instance
		confirmed, decidedOut []mapping.Expr
		probe                 string
	}{
		// cname repeats (IBM), so two companies may share it.
		{"duplicate", m1, ibm(m1.Src), exprs("c.cname"), exprs("c.location"), "c.cid"},
		// (cname, location) would be unique but one company leaves
		// location unset.
		{"nil slot", m1, companies(m1.Src, [][3]string{{"1", "A", "X"}, {"1", "B", "Y"}, {"2", "A", "Y"}, {"2", "B", ""}}),
			exprs("c.cname", "c.location"), nil, "c.cid"},
		// The copies share (pid, year) only through nested rows.
		{"nested", nested, papers(), exprs("p.pid", "p.year"), exprs("a.name"), "p.title"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o, span, _, _ := retrieve(t, c.m, c.in, c.confirmed, c.decidedOut, c.probe)
			if got := o.Reg.Get(obs.MQueryRefuted); got != 0 || span.AttrMap()["refuted"] != nil {
				t.Errorf("refuted %d retrievals, span %v; want none", got, span.AttrMap())
			}
		})
	}
}

// TestRefuteMatchesQueryClasses: a refutation names the refuted pair by
// the IDs of their classes in the partition it started from, which it
// leaves as it found it.
func TestRefuteMatchesQueryClasses(t *testing.T) {
	m := refuteMappings(t)["m"]
	in := ibm(m.Src)
	tb := compileTableau(m, nil, 2)
	if !probeSetup(tb, m.Poss(), exprs("p.pid"), nil, exprs("c.cname")[0], nil) {
		t.Fatal("probe unconstructible")
	}
	neq := tb.differPairs(exprs("c.cname"))
	ids := [2]string{tb.classID(neq[0]), tb.classID(neq[1])}
	if !tb.refute(query.NewIndexStore(in), neq) {
		t.Fatal("agreeing on the unique pid does not refute the cname probe")
	}
	if tb.neqIDs != ids {
		t.Errorf("refutation names %v, the partition %v", tb.neqIDs, ids)
	}
	if again := [2]string{tb.classID(neq[0]), tb.classID(neq[1])}; again != ids {
		t.Errorf("refute left another partition: the pair is now %v", again)
	}
}
