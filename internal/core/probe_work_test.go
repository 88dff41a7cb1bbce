package core_test

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"muse/internal/core"
	"muse/internal/designer"
	"muse/internal/obs"
	"muse/internal/parser"
	"muse/internal/scenarios"
)

// TestTPCHG1ProbeWork is an exact, timing-free guard on probe retrieval
// work. It designs every grouping function of TPCH at scale 0.1 with a
// G1 designer, and pins the refined mappings, the question and example
// counts, the refuted probe evaluations and the rows the query kernel
// scanned. TPCH's G1 probes find no real example (the paper's 0%), and
// every one of them is refuted from the source's unique attributes
// without a search, so a change that searches them again scans
// hundreds of thousands of rows and fails here.
func TestTPCHG1ProbeWork(t *testing.T) {
	design, reg := designTPCH(t, designer.G1)
	got := fmt.Sprintf("%s evals %d refuted %d scanned %d", design,
		reg.Get(obs.MQueryEvals), reg.Get(obs.MQueryRefuted), reg.Get(obs.MQueryRowsScanned))
	// Searching every probe, as the kernel did before refutation, gives
	// the same mappings and counts with 639,534 rows scanned.
	const want = "mappings 68e5f5991c3f8caa0a5d1785933af9a70561bcbecffabb44f9270b41881bb7d2 " +
		"questions 18 real 0 synthetic 18 evals 18 refuted 18 scanned 0"
	if got != want {
		t.Errorf("TPCH G1 design drifted:\n got %s\nwant %s", got, want)
	}
}

// TestTPCHG2ProbeWork is TestTPCHG1ProbeWork for the G2 designer, whose
// probes the source's unique attributes rarely refute. Every probe the
// mapping's assignment table proves empty gets its synthetic example
// without a plan or a search, so the kernel scans only the probes that
// have a match; searching the empty ones again scans 980,042 rows more
// and fails here.
func TestTPCHG2ProbeWork(t *testing.T) {
	design, reg := designTPCH(t, designer.G2)
	got := fmt.Sprintf("%s evals %d refuted %d decided %d scanned %d", design,
		reg.Get(obs.MQueryEvals), reg.Get(obs.MQueryRefuted), reg.Get(obs.MQueryDecided), reg.Get(obs.MQueryRowsScanned))
	// Searching the 13 decided probes, as the kernel did before the
	// decision, gives the same mappings and counts with 1,348,105 rows
	// scanned.
	const want = "mappings 308503797973f66a850b82dc64b23f2c891a4661541dd9ce0117803e7aa0ff7c " +
		"questions 214 real 53 synthetic 161 evals 214 refuted 148 decided 13 scanned 368063"
	if got != want {
		t.Errorf("TPCH G2 design drifted:\n got %s\nwant %s", got, want)
	}
}

// designTPCH designs every grouping function of TPCH's mappings at
// scale 0.1 with one wizard and a designer of the given strategy. It
// returns the design's hash of the refined mappings and its question
// and example counts, and the wizard's metrics.
func designTPCH(t *testing.T, strategy designer.Strategy) (string, *obs.Registry) {
	t.Helper()
	s := scenarios.TPCH()
	set, err := s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New()
	w := core.NewGroupingWizard(s.Src, s.NewInstance(0.1))
	w.Obs = o
	var refined []string
	for _, m := range set.Mappings {
		if m.Ambiguous() {
			m = m.Interpretation(make([]int, len(m.OrGroups)))
		}
		if len(m.SKs) == 0 {
			continue
		}
		oracle, err := designer.StrategyOracle(strategy, m)
		if err != nil {
			t.Fatal(err)
		}
		out, err := w.DesignMapping(m, oracle)
		if err != nil {
			t.Fatal(err)
		}
		refined = append(refined, parser.FormatMapping(out))
	}
	var real, synth int
	for _, sk := range w.Stats.SKs {
		real += sk.RealExamples
		synth += sk.SyntheticExamples
	}
	return fmt.Sprintf("mappings %x questions %d real %d synthetic %d",
		sha256.Sum256([]byte(strings.Join(refined, "\n"))), w.Stats.TotalQuestions(), real, synth), o.Reg
}
