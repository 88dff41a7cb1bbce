// Benchmarks regenerating every table and figure of the paper's
// evaluation (Sec. VI), plus microbenchmarks for the substrate pieces
// and ablations of the design choices DESIGN.md calls out. Run with
//
//	go test -bench=. -benchmem
//
// Benchmarks use reduced instance scales and retrieval timeouts so a
// full sweep stays in the minutes; cmd/musebench runs the paper-scale
// configuration and prints the paper-shaped tables.
package muse_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"muse/internal/bench"
	"muse/internal/chase"
	"muse/internal/core"
	"muse/internal/designer"
	"muse/internal/homo"
	"muse/internal/instance"
	"muse/internal/mapping"
	"muse/internal/scenarios"
)

func benchCfg() bench.MuseGConfig {
	return bench.MuseGConfig{Scale: 0.05, Timeout: 30 * time.Millisecond}
}

// --- Fig. 2: the chase ---

func BenchmarkChaseFig2(b *testing.B) {
	f := scenarios.NewFigure1(false)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := chase.Chase(f.Source, f.M1, f.M2, f.M3); err != nil {
			b.Fatal(err)
		}
	}
}

// scenarioMappings generates a scenario's full (disambiguated)
// mapping set.
func scenarioMappings(b *testing.B, s *scenarios.Scenario) []*mapping.Mapping {
	b.Helper()
	set, err := s.Generate()
	if err != nil {
		b.Fatal(err)
	}
	var ms []*mapping.Mapping
	for _, m := range set.Mappings {
		if m.Ambiguous() {
			m = m.Interpretation(make([]int, len(m.OrGroups)))
		}
		ms = append(ms, m)
	}
	return ms
}

// BenchmarkChaseScenario chases a generated instance of each scenario
// with its full (disambiguated) mapping set.
func BenchmarkChaseScenario(b *testing.B) {
	for _, s := range scenarios.All() {
		s := s
		b.Run(s.Name, func(b *testing.B) {
			ms := scenarioMappings(b, s)
			in := s.NewInstance(0.02)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := chase.Chase(in, ms...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchSink keeps benchmark results reachable across explicit GCs so
// retained-heap measurements see them as live.
var benchSink *instance.Instance

// liveHeap forces a collection and returns the live heap size.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// BenchmarkChaseScenarioScaled is the scenario-firehose configuration:
// the TPCH chase at paper scale factors (SF2 = NewInstance(2), SF5),
// two orders of magnitude above BenchmarkChaseScenario's 0.02. Besides
// ns/op and allocs it reports two retained-heap metrics — the live
// bytes held by the source instance and by the chase output after a
// forced GC — which is what the instance-layer interning/compaction
// pass targets (BENCH_instance_baseline.json tracks pre/post). Run
// with -benchtime=1x; `make bench-scaled-smoke` covers SF2.
func BenchmarkChaseScenarioScaled(b *testing.B) {
	s, err := scenarios.ByName("TPCH")
	if err != nil {
		b.Fatal(err)
	}
	for _, sf := range []float64{2, 5} {
		sf := sf
		b.Run(fmt.Sprintf("SF%d", int(sf)), func(b *testing.B) {
			ms := scenarioMappings(b, s)
			base := liveHeap()
			in := s.NewInstance(sf)
			benchSink = in
			srcRetained := liveHeap() - base
			b.ReportAllocs()
			b.ResetTimer()
			var out *instance.Instance
			for i := 0; i < b.N; i++ {
				out, err = chase.Chase(in, ms...)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			benchSink = out
			withOut := liveHeap()
			benchSink = nil
			out = nil
			withoutOut := liveHeap()
			b.ReportMetric(float64(srcRetained)/1e6, "src-retained-MB")
			b.ReportMetric(float64(withOut-withoutOut)/1e6, "out-retained-MB")
		})
	}
}

// --- T1: scenario characteristics ---

func BenchmarkCharacteristics(b *testing.B) {
	for _, s := range scenarios.All() {
		s := s
		b.Run(s.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.RunCharacteristics(s, 0.02); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- T2 / Fig. 5: Muse-G per scenario × strategy ---

func BenchmarkMuseG(b *testing.B) {
	for _, s := range scenarios.All() {
		for _, strat := range []designer.Strategy{designer.G1, designer.G2, designer.G3} {
			s, strat := s, strat
			b.Run(s.Name+"_"+strat.String(), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := bench.RunMuseG(s, strat, benchCfg()); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- T3: Muse-D per ambiguous scenario ---

func BenchmarkMuseD(b *testing.B) {
	for _, name := range []string{"Mondial", "TPCH"} {
		name := name
		b.Run(name, func(b *testing.B) {
			s, err := scenarios.ByName(name)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				if _, err := bench.RunMuseD(s, 0.05); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- ablations (DESIGN.md §6) ---

// BenchmarkMuseGAblation compares the full wizard against dropping the
// key-based reduction and dropping real-example retrieval.
func BenchmarkMuseGAblation(b *testing.B) {
	s, err := scenarios.ByName("DBLP")
	if err != nil {
		b.Fatal(err)
	}
	variants := []struct {
		name string
		cfg  func() bench.MuseGConfig
	}{
		{"full", func() bench.MuseGConfig { return benchCfg() }},
		{"nokeys", func() bench.MuseGConfig { c := benchCfg(); c.NoKeys = true; return c }},
		{"noreal", func() bench.MuseGConfig { c := benchCfg(); c.NoReal = true; return c }},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.RunMuseG(s, designer.G1, v.cfg()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- substrate microbenchmarks ---

// BenchmarkProbeQuestion measures one Muse-G probe (example
// construction + two chases) on the Fig. 1 scenario.
func BenchmarkProbeQuestion(b *testing.B) {
	f := scenarios.NewFigure1(false)
	oracle := designer.NewGroupingOracle("SKProjects", []mapping.Expr{mapping.E("c", "cname")})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := core.NewGroupingWizard(f.SrcDeps, nil)
		if _, err := w.DesignSK(f.M2, "SKProjects", oracle); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRealExampleRetrieval measures the Q_Ie evaluation over the
// Mondial instance (the sub-second column of Fig. 5).
func BenchmarkRealExampleRetrieval(b *testing.B) {
	s, err := scenarios.ByName("Mondial")
	if err != nil {
		b.Fatal(err)
	}
	in := s.NewInstance(0.2)
	set, err := s.Generate()
	if err != nil {
		b.Fatal(err)
	}
	var m *mapping.Mapping
	for _, cand := range set.Mappings {
		if !cand.Ambiguous() && len(cand.SKs) > 0 && len(cand.For) >= 2 {
			m = cand
			break
		}
	}
	oracle, err := designer.StrategyOracle(designer.G1, m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := core.NewGroupingWizard(s.Src, in)
		w.Timeout = 200 * time.Millisecond
		if _, err := w.DesignMapping(m, oracle); err != nil {
			b.Fatal(err)
		}
	}
}

// --- retrieval benchmarks (the Q_Ie path; BENCH_retrieval_baseline.json) ---

// retrievalMapping picks, deterministically, a scenario mapping that
// exercises the retrieval path: unambiguous, with grouping functions to
// design and (preferably) a join in the for clause.
func retrievalMapping(b *testing.B, s *scenarios.Scenario) *mapping.Mapping {
	b.Helper()
	set, err := s.Generate()
	if err != nil {
		b.Fatal(err)
	}
	var fallback *mapping.Mapping
	for _, m := range set.Mappings {
		if m.Ambiguous() || len(m.SKs) == 0 {
			continue
		}
		if len(m.For) >= 2 {
			return m
		}
		if fallback == nil {
			fallback = m
		}
	}
	if fallback == nil {
		b.Skipf("%s has no unambiguous mapping with grouping functions", s.Name)
	}
	return fallback
}

// BenchmarkProbeRetrieval measures real-example retrieval across a
// whole Muse-G session: one wizard designs the same mapping's grouping
// functions repeatedly against a scenario-scale real instance, so
// per-session retrieval state (index reuse) is amortized across
// iterations — the warm half of the cold-vs-warm pair.
func BenchmarkProbeRetrieval(b *testing.B) {
	for _, s := range scenarios.All() {
		s := s
		b.Run(s.Name, func(b *testing.B) {
			in := s.NewInstance(0.1)
			m := retrievalMapping(b, s)
			oracle, err := designer.StrategyOracle(designer.G1, m)
			if err != nil {
				b.Fatal(err)
			}
			w := core.NewGroupingWizard(s.Src, in)
			w.Timeout = 100 * time.Millisecond
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.DesignMapping(m, oracle); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProbeRetrievalCold is the cold half of the pair: a fresh
// wizard (and thus fresh per-session retrieval state) every iteration.
// The gap to BenchmarkProbeRetrieval is the benefit of reusing indexes
// across a design session.
func BenchmarkProbeRetrievalCold(b *testing.B) {
	for _, s := range scenarios.All() {
		s := s
		b.Run(s.Name, func(b *testing.B) {
			in := s.NewInstance(0.1)
			m := retrievalMapping(b, s)
			oracle, err := designer.StrategyOracle(designer.G1, m)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := core.NewGroupingWizard(s.Src, in)
				w.Timeout = 100 * time.Millisecond
				if _, err := w.DesignMapping(m, oracle); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkIsomorphism measures the scenario comparison the designer
// oracle performs on every question.
func BenchmarkIsomorphism(b *testing.B) {
	f := scenarios.NewFigure1(false)
	out1 := chase.MustChase(f.Source, f.M2)
	out2 := chase.MustChase(f.Source, f.M2.WithSK("SKProjects", []mapping.Expr{mapping.E("c", "cname")}))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if homo.Isomorphic(out1, out2) {
			b.Fatal("distinct groupings reported isomorphic")
		}
	}
}

// BenchmarkMappingGeneration measures the Clio-style generator on the
// largest scenario.
func BenchmarkMappingGeneration(b *testing.B) {
	s, err := scenarios.ByName("Mondial")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Generate(); err != nil {
			b.Fatal(err)
		}
	}
}
