package core_test

import (
	"testing"

	"muse/internal/core"
	"muse/internal/designer"
	"muse/internal/query"
	"muse/internal/scenarios"
)

// probeSnapshots copies, at each question a designer is asked, the
// probe retrieval that obtained its example when its copies differ on
// one attribute.
type probeSnapshots struct {
	w     *core.GroupingWizard
	d     core.GroupingDesigner
	taken []*core.ProbeRetrieval
}

func (p *probeSnapshots) ChooseScenario(q *core.GroupingQuestion) (int, error) {
	if r := p.w.LastRetrieval(); r != nil {
		p.taken = append(p.taken, r)
	}
	return p.d.ChooseScenario(q)
}

// m5Probes designs TPCH m5 at scale 0.1 with a G2 designer and returns
// the wizard, whose assignment table of m5 is then built, and the
// design's probe retrievals that reach the table's decision, split by
// whether the table proves them empty.
func m5Probes(tb testing.TB) (w *core.GroupingWizard, empty, nonEmpty []*core.ProbeRetrieval) {
	s := scenarios.TPCH()
	set, err := s.Generate()
	if err != nil {
		tb.Fatal(err)
	}
	m := set.ByName("m5")
	if m.Ambiguous() {
		m = m.Interpretation(make([]int, len(m.OrGroups)))
	}
	oracle, err := designer.StrategyOracle(designer.G2, m)
	if err != nil {
		tb.Fatal(err)
	}
	w = core.NewGroupingWizard(s.Src, s.NewInstance(0.1))
	rec := &probeSnapshots{w: w, d: oracle}
	if _, err := w.DesignMapping(m, rec); err != nil {
		tb.Fatal(err)
	}
	for _, p := range rec.taken {
		if p.Refute() {
			continue
		}
		shaped, isEmpty, err := p.Decide()
		switch {
		case err != nil:
			tb.Fatal(err)
		case !shaped:
		case isEmpty:
			empty = append(empty, p)
		default:
			nonEmpty = append(nonEmpty, p)
		}
	}
	if len(empty) == 0 || len(nonEmpty) == 0 {
		tb.Fatalf("m5's G2 design decided %d empty and %d non-empty probes; want some of each", len(empty), len(nonEmpty))
	}
	return w, empty, nonEmpty
}

// TestProbeDecideWarmAllocs: once a mapping's assignment table is
// built, deciding a probe on it allocates nothing, whether the table
// proves the probe empty or finds two rows that differ.
func TestProbeDecideWarmAllocs(t *testing.T) {
	_, empty, nonEmpty := m5Probes(t)
	for i, p := range append(empty, nonEmpty...) {
		if allocs := testing.AllocsPerRun(20, func() { p.Decide() }); allocs != 0 {
			t.Errorf("deciding probe %d allocates %.1f times; want 0", i, allocs)
		}
	}
}

// BenchmarkProbeDecide runs the probe retrievals of TPCH m5's G2 design
// at scale 0.1 that the assignment table decides: each op decides every
// empty (or every non-empty) probe on the warm table, or searches it
// with the query kernel over the session's warm index store, as the
// wizard did before the decision.
func BenchmarkProbeDecide(b *testing.B) {
	w, empty, nonEmpty := m5Probes(b)
	for _, set := range []struct {
		name   string
		probes []*core.ProbeRetrieval
	}{{"empty", empty}, {"nonempty", nonEmpty}} {
		b.Run("decide/"+set.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, p := range set.probes {
					p.Decide()
				}
			}
		})
		b.Run("kernel/"+set.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, p := range set.probes {
					if _, _, err := p.Query.First(w.Real, query.Options{Store: w.Store}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// g1Refuted designs every grouping function of TPCH's mappings at scale
// 0.1 with a G1 designer, as TestTPCHG1ProbeWork does, and returns its
// 18 probe retrievals, which the source's unique attributes all refute.
func g1Refuted(tb testing.TB) []*core.ProbeRetrieval {
	s := scenarios.TPCH()
	set, err := s.Generate()
	if err != nil {
		tb.Fatal(err)
	}
	w := core.NewGroupingWizard(s.Src, s.NewInstance(0.1))
	var probes []*core.ProbeRetrieval
	for _, m := range set.Mappings {
		if m.Ambiguous() {
			m = m.Interpretation(make([]int, len(m.OrGroups)))
		}
		if len(m.SKs) == 0 {
			continue
		}
		oracle, err := designer.StrategyOracle(designer.G1, m)
		if err != nil {
			tb.Fatal(err)
		}
		rec := &probeSnapshots{w: w, d: oracle}
		if _, err := w.DesignMapping(m, rec); err != nil {
			tb.Fatal(err)
		}
		probes = append(probes, rec.taken...)
	}
	for _, p := range probes {
		if !p.Refute() {
			tb.Fatalf("a G1 probe is not refuted; its query requires %v to differ", p.Query.Neq)
		}
	}
	if len(probes) != 18 {
		tb.Fatalf("TPCH's G1 design posed %d probes, want 18", len(probes))
	}
	return probes
}

// TestProbeRefuteWarmAllocs: once the index store holds its statistics
// and uniqueness verdicts, refuting a probe on its tableau allocates
// nothing.
func TestProbeRefuteWarmAllocs(t *testing.T) {
	probes := g1Refuted(t)
	if allocs := testing.AllocsPerRun(20, func() {
		for _, p := range probes {
			p.Refute()
		}
	}); allocs != 0 {
		t.Errorf("refuting TPCH's %d G1 probes allocates %.1f times; want 0", len(probes), allocs)
	}
}

// BenchmarkProbeRefute refutes the 18 probe retrievals of TPCH's G1
// design at scale 0.1 on their tableaux, over the session's warm index
// store: each op refutes all of them.
func BenchmarkProbeRefute(b *testing.B) {
	probes := g1Refuted(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range probes {
			p.Refute()
		}
	}
}

// tablesSeen answers every Muse-D question with each or-group's first
// alternative and every Muse-G question with Scenario 2, and records the
// most assignment tables its session's grouping wizard held.
type tablesSeen struct {
	w    *core.GroupingWizard
	most int
}

func (d *tablesSeen) ChooseScenario(*core.GroupingQuestion) (int, error) {
	d.most = max(d.most, d.w.Tables())
	return 2, nil
}

func (d *tablesSeen) SelectValues(q *core.ChoiceQuestion) ([][]int, error) {
	sel := make([][]int, len(q.Choices))
	for i := range sel {
		sel[i] = []int{0}
	}
	return sel, nil
}

// TestSessionDropsTables: a dialog's assignment tables die with it. The
// session's grouping wizard builds them while it asks, and a finished
// session, which a server keeps for its result, holds none.
func TestSessionDropsTables(t *testing.T) {
	s := scenarios.TPCH()
	set, err := s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	sess := core.NewSession(s.Src, s.NewInstance(0.02))
	d := &tablesSeen{w: sess.Grouping}
	if _, err := sess.Run(set, d, d); err != nil {
		t.Fatal(err)
	}
	if d.most == 0 || sess.Grouping.Tables() != 0 {
		t.Errorf("the wizard held at most %d tables while asking and %d after the dialog; want some, then none", d.most, sess.Grouping.Tables())
	}
}
