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
// G1 designer and no retrieval budget, and pins the refined mappings,
// the question and example counts, the refuted probe evaluations and
// the rows the query kernel scanned. TPCH's G1 probes find no real
// example (the paper's 0%), and every one of them is refuted from the
// source's unique attributes without a search, so a change that
// searches them again scans hundreds of thousands of rows and fails
// here.
func TestTPCHG1ProbeWork(t *testing.T) {
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
		oracle, err := designer.StrategyOracle(designer.G1, m)
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
	got := fmt.Sprintf("mappings %x questions %d real %d synthetic %d evals %d refuted %d scanned %d",
		sha256.Sum256([]byte(strings.Join(refined, "\n"))),
		w.Stats.TotalQuestions(), real, synth,
		o.Reg.Get(obs.MQueryEvals), o.Reg.Get(obs.MQueryRefuted), o.Reg.Get(obs.MQueryRowsScanned))
	// Searching every probe, as the kernel did before refutation, gives
	// the same mappings and counts with 639,534 rows scanned.
	const want = "mappings 68e5f5991c3f8caa0a5d1785933af9a70561bcbecffabb44f9270b41881bb7d2 " +
		"questions 18 real 0 synthetic 18 evals 18 refuted 18 scanned 0"
	if got != want {
		t.Errorf("TPCH G1 design drifted:\n got %s\nwant %s", got, want)
	}
}
