package core_test

import (
	"context"
	"errors"
	"testing"

	"muse/internal/core"
	"muse/internal/designer"
	"muse/internal/mapping"
	"muse/internal/nr"
	"muse/internal/obs"
	"muse/internal/parser"
	"muse/internal/query"
	"muse/internal/scenarios"
)

// TestMuseGObsCounters runs a full grouping design with an Obs bundle
// attached and checks the registry mirrors the wizard's own stats —
// and that instrumentation does not change the designed mapping.
func TestMuseGObsCounters(t *testing.T) {
	design := func(o *obs.Obs) (*core.GroupingWizard, string) {
		fig := scenarios.NewFigure1(true)
		w := core.NewGroupingWizard(fig.SrcDeps, fig.Source)
		w.Obs = o
		oracle, err := designer.StrategyOracle(designer.G1, fig.M2)
		if err != nil {
			t.Fatal(err)
		}
		out, err := w.DesignMapping(fig.M2, oracle)
		if err != nil {
			t.Fatal(err)
		}
		return w, parser.FormatMapping(out)
	}

	o := obs.New()
	w, instrumented := design(o)
	_, plain := design(nil)
	if instrumented != plain {
		t.Error("instrumented design produced a different mapping than the nil-obs design")
	}

	reg := o.Reg
	if got, want := reg.Get(obs.MMuseGQuestions), int64(w.Stats.TotalQuestions()); got != want {
		t.Errorf("questions counter = %d, want %d (wizard stats)", got, want)
	}
	if got, want := reg.Get(obs.MMuseGSKs), int64(len(w.Stats.SKs)); got != want {
		t.Errorf("sks counter = %d, want %d", got, want)
	}
	var real, synth, tuples int64
	for _, sk := range w.Stats.SKs {
		real += int64(sk.RealExamples)
		synth += int64(sk.SyntheticExamples)
		tuples += int64(sk.ExampleTuples)
	}
	if got := reg.Get(obs.MMuseGRealExamples); got != real {
		t.Errorf("real examples counter = %d, want %d", got, real)
	}
	if got := reg.Get(obs.MMuseGSyntheticExamples); got != synth {
		t.Errorf("synthetic examples counter = %d, want %d", got, synth)
	}
	if got := reg.Get(obs.MMuseGExampleTuples); got != tuples {
		t.Errorf("example tuples counter = %d, want %d", got, tuples)
	}
	if tuples == 0 {
		t.Error("no example tuples recorded; expected the probes to build examples")
	}
	// The wizard's probes run through the query engine, so its counters
	// must have moved too. Every Fig. 1 probe is refuted from the
	// source's keys before planning; the refuted counter must match the
	// query.eval spans that carry the refuted attribute.
	if reg.Get(obs.MQueryEvals) == 0 {
		t.Error("no query evals recorded")
	}
	if o.Tr.Count() > obs.DefaultRingSize {
		t.Fatalf("%d spans overflow the %d-span ring; refuted spans cannot be counted", o.Tr.Count(), obs.DefaultRingSize)
	}
	var refutedSpans int64
	for _, rec := range o.Tr.Finished() {
		if rec.Name == obs.SpanQueryEval && rec.AttrMap()["refuted"] == true {
			refutedSpans++
		}
	}
	if got := reg.Get(obs.MQueryRefuted); got == 0 || got != refutedSpans {
		t.Errorf("refuted counter = %d, want %d refuted query.eval spans (and more than 0)", got, refutedSpans)
	}
	// A searched query through the wizard's shared store (a join with
	// no inequality, so nothing to refute) moves the index counters.
	ms, err := joinQuery(w.Real.Cat).Eval(w.Real, query.Options{Store: w.Store, Obs: o})
	if err != nil || len(ms) == 0 {
		t.Fatalf("join through the wizard's store: %d matches, err %v", len(ms), err)
	}
	if reg.Get(obs.MIndexProbes) == 0 {
		t.Error("no index probes recorded")
	}
	if reg.Get(obs.MChaseRuns) == 0 {
		t.Error("no chase runs recorded (scenario chases should be instrumented)")
	}
	if o.Tr.Count() == 0 {
		t.Error("no spans recorded")
	}
}

// TestProbeRetrievalUnderProbeSpan: a question's example retrieval runs
// inside its museg.probe span, so in a traced Fig. 1 design with a real
// instance every query.eval span is a child of a museg.probe span.
func TestProbeRetrievalUnderProbeSpan(t *testing.T) {
	fig := scenarios.NewFigure1(true)
	w := core.NewGroupingWizard(fig.SrcDeps, fig.Source)
	w.Obs = obs.New()
	oracle, err := designer.StrategyOracle(designer.G1, fig.M2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.DesignMapping(fig.M2, oracle); err != nil {
		t.Fatal(err)
	}
	if w.Obs.Tr.Count() > obs.DefaultRingSize {
		t.Fatalf("%d spans overflow the %d-span ring", w.Obs.Tr.Count(), obs.DefaultRingSize)
	}
	recs := w.Obs.Tr.Finished()
	names := make(map[string]string, len(recs))
	for _, rec := range recs {
		names[rec.SpanID] = rec.Name
	}
	evals := 0
	for _, rec := range recs {
		if rec.Name != obs.SpanQueryEval {
			continue
		}
		evals++
		if parent := names[rec.ParentID]; parent != obs.SpanMuseGProbe {
			t.Errorf("a query.eval span's parent is %q, want %s", parent, obs.SpanMuseGProbe)
		}
	}
	if evals == 0 || evals != w.Stats.TotalQuestions() {
		t.Errorf("%d query.eval spans for %d questions; want one per question", evals, w.Stats.TotalQuestions())
	}
}

// joinQuery joins each Fig. 1 company to its projects and their
// managers.
func joinQuery(cat *nr.Catalog) *query.Query {
	return &query.Query{
		Src: cat,
		Atoms: []query.Atom{
			{Var: "c", Set: []string{"Companies"}, Bind: map[string]string{"cid": "x"}},
			{Var: "p", Set: []string{"Projects"}, Bind: map[string]string{"cid": "x", "manager": "m"}},
			{Var: "e", Set: []string{"Employees"}, Bind: map[string]string{"eid": "m"}},
		},
	}
}

// TestQueryEvalNilObsIdentical checks Eval's nil-obs path returns the
// same matches as the instrumented one.
func TestQueryEvalNilObsIdentical(t *testing.T) {
	fig := scenarios.NewFigure1(true)
	q := joinQuery(fig.Src)
	plain, err := q.Eval(fig.Source, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	instrumented, err := q.Eval(fig.Source, query.Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(instrumented) {
		t.Fatalf("instrumented Eval returned %d matches, nil-obs returned %d", len(instrumented), len(plain))
	}
	if got, want := o.Reg.Get(obs.MQueryRowsReturned), int64(len(plain)); got != want {
		t.Errorf("rows returned counter = %d, want %d", got, want)
	}
	if o.Reg.Get(obs.MQueryRowsScanned) < int64(len(plain)) {
		t.Errorf("rows scanned (%d) < rows returned (%d)", o.Reg.Get(obs.MQueryRowsScanned), len(plain))
	}
}

// TestIncrementalMuseGObsCounters checks that GroupLess and GroupMore,
// like DesignSK, mirror their questions onto the registry, run their
// scenario chases instrumented, and stop on a cancelled context.
func TestIncrementalMuseGObsCounters(t *testing.T) {
	type refine func(*core.GroupingWizard, *mapping.Mapping, string, core.GroupingDesigner) (*mapping.Mapping, error)
	cname, location := mapping.E("c", "cname"), mapping.E("c", "location")
	for _, tc := range []struct {
		name          string
		from, desired []mapping.Expr
		run           refine
	}{
		{"GroupLess", []mapping.Expr{cname}, []mapping.Expr{cname, location}, (*core.GroupingWizard).GroupLess},
		{"GroupMore", []mapping.Expr{cname, location}, []mapping.Expr{cname}, (*core.GroupingWizard).GroupMore},
	} {
		fig := scenarios.NewFigure1(true)
		m := fig.M2.WithSK("SKProjects", tc.from)
		oracle := designer.NewGroupingOracle("SKProjects", tc.desired)
		w := core.NewGroupingWizard(fig.SrcDeps, fig.Source)
		w.Obs = obs.New()
		if _, err := tc.run(w, m, "SKProjects", oracle); err != nil {
			t.Fatal(err)
		}
		reg := w.Obs.Reg
		if got, want := reg.Get(obs.MMuseGQuestions), int64(w.Stats.TotalQuestions()); got != want || want == 0 {
			t.Errorf("%s: questions counter = %d, wizard stats %d (want equal and above 0)", tc.name, got, want)
		}
		if got := reg.Get(obs.MMuseGSKs); got != 1 {
			t.Errorf("%s: sks counter = %d, want 1", tc.name, got)
		}
		if reg.Get(obs.MChaseTuples) == 0 {
			t.Errorf("%s: no chase tuples recorded; the scenario chases are not instrumented", tc.name)
		}

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		w = core.NewGroupingWizard(fig.SrcDeps, fig.Source)
		w.Ctx = ctx
		if _, err := tc.run(w, m, "SKProjects", oracle); !errors.Is(err, context.Canceled) {
			t.Errorf("%s under a cancelled context: err %v, want context.Canceled", tc.name, err)
		}
	}
}

// TestDesignSKSpans: DesignSK, GroupLess and GroupMore each record one
// museg.design_sk span naming the mapping and the grouping function,
// whose questions attribute is the count the call appended to the
// wizard's stats.
func TestDesignSKSpans(t *testing.T) {
	type design func(*core.GroupingWizard, *mapping.Mapping, string, core.GroupingDesigner) (*mapping.Mapping, error)
	cname, location := mapping.E("c", "cname"), mapping.E("c", "location")
	for _, tc := range []struct {
		name          string
		from, desired []mapping.Expr // from nil: Fig. 1's m2 as given
		run           design
	}{
		{"DesignSK", nil, []mapping.Expr{cname}, (*core.GroupingWizard).DesignSK},
		{"GroupLess", []mapping.Expr{cname}, []mapping.Expr{cname, location}, (*core.GroupingWizard).GroupLess},
		{"GroupMore", []mapping.Expr{cname, location}, []mapping.Expr{cname}, (*core.GroupingWizard).GroupMore},
	} {
		fig := scenarios.NewFigure1(true)
		m := fig.M2
		if tc.from != nil {
			m = m.WithSK("SKProjects", tc.from)
		}
		w := core.NewGroupingWizard(fig.SrcDeps, fig.Source)
		w.Obs = obs.New()
		if _, err := tc.run(w, m, "SKProjects", designer.NewGroupingOracle("SKProjects", tc.desired)); err != nil {
			t.Fatal(err)
		}
		if len(w.Stats.SKs) != 1 || w.Stats.SKs[0].Questions == 0 {
			t.Fatalf("%s: wizard stats %+v, want one grouping function with questions", tc.name, w.Stats.SKs)
		}
		if w.Obs.Tr.Count() > obs.DefaultRingSize {
			t.Fatalf("%s: %d spans overflow the %d-span ring", tc.name, w.Obs.Tr.Count(), obs.DefaultRingSize)
		}
		var spans []map[string]any
		for _, rec := range w.Obs.Tr.Finished() {
			if rec.Name == obs.SpanMuseGSK {
				spans = append(spans, rec.AttrMap())
			}
		}
		if len(spans) != 1 {
			t.Fatalf("%s: %d %s spans, want 1", tc.name, len(spans), obs.SpanMuseGSK)
		}
		if a := spans[0]; a["mapping"] != m.Name || a["sk"] != "SKProjects" || a["questions"] != w.Stats.SKs[0].Questions {
			t.Errorf("%s: span attributes %v, want mapping %s, sk SKProjects, questions %d", tc.name, a, m.Name, w.Stats.SKs[0].Questions)
		}
	}
}
