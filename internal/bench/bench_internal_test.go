package bench

import (
	"strings"
	"testing"

	"muse/internal/designer"
	"muse/internal/scenarios"
)

// quickCfg keeps unit-test runs fast; cmd/musebench uses the paper
// configuration.
func quickCfg() MuseGConfig {
	return MuseGConfig{Scale: 0.05}
}

func TestCharacteristicsRows(t *testing.T) {
	var rows []Characteristics
	for _, s := range scenarios.All() {
		row, err := RunCharacteristics(s, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
		if row.Mappings == 0 || row.GroupingSets == 0 {
			t.Errorf("%s: empty characteristics row", s.Name)
		}
	}
	out := FormatCharacteristics(rows)
	for _, want := range []string{"Mondial", "DBLP", "TPCH", "Amalgam", "ambiguous"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q:\n%s", want, out)
		}
	}
}

// TestMuseGKeyReductionShape verifies the central Fig. 5 claim on the
// DBLP scenario: a G1 designer needs far fewer questions than |poss|
// (keys prune), while a G2 designer — whose attributes do not contain
// the keys — gets no reduction.
func TestMuseGKeyReductionShape(t *testing.T) {
	s, err := scenarios.ByName("DBLP")
	if err != nil {
		t.Fatal(err)
	}
	g1, err := RunMuseG(s, designer.G1, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	g2, err := RunMuseG(s, designer.G2, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if g1.AvgQuestions >= g1.AvgPoss/2 {
		t.Errorf("G1 avg questions %.1f not far below avg poss %.1f", g1.AvgQuestions, g1.AvgPoss)
	}
	if g2.AvgQuestions < g2.AvgPoss-1.5 {
		t.Errorf("G2 avg questions %.1f should stay near avg poss %.1f (keys not usable)", g2.AvgQuestions, g2.AvgPoss)
	}
	if g1.AvgQuestions >= g2.AvgQuestions {
		t.Errorf("G1 (%.1f) should need fewer questions than G2 (%.1f)", g1.AvgQuestions, g2.AvgQuestions)
	}
}

// TestMuseGAblationNoKeys: dropping the key reduction sends G1's
// question count back up to |poss| (the Sec. III-A baseline).
func TestMuseGAblationNoKeys(t *testing.T) {
	s, err := scenarios.ByName("DBLP")
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickCfg()
	cfg.NoKeys = true
	cfg.NoReal = true
	row, err := RunMuseG(s, designer.G1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunMuseG(s, designer.G1, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if row.AvgQuestions <= base.AvgQuestions {
		t.Errorf("no-keys ablation (%.1f questions) should exceed the keyed run (%.1f)", row.AvgQuestions, base.AvgQuestions)
	}
	if row.RealFraction != 0 {
		t.Error("NoReal ablation still drew real examples")
	}
}

// TestMuseDRows reproduces the Muse-D table shape: questions equal the
// number of ambiguous mappings and are far fewer than the encoded
// alternatives; the examples stay small.
func TestMuseDRows(t *testing.T) {
	var rows []MuseDRow
	for _, name := range []string{"Mondial", "TPCH"} {
		s, err := scenarios.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		row, err := RunMuseD(s, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, row)
		if row.Questions != s.PaperDQuestions {
			t.Errorf("%s: %d questions, want %d (= #ambiguous mappings)", name, row.Questions, s.PaperDQuestions)
		}
		if row.Alternatives <= row.Questions*2 {
			t.Errorf("%s: alternatives (%d) should dwarf questions (%d)", name, row.Alternatives, row.Questions)
		}
		if row.IeTuplesMax > 25 {
			t.Errorf("%s: example instances too large (%d tuples)", name, row.IeTuplesMax)
		}
	}
	if rows[1].Alternatives != 16 {
		t.Errorf("TPCH encodes %d alternatives, want 16", rows[1].Alternatives)
	}
	out := FormatMuseD(rows)
	if !strings.Contains(out, "TPCH") || !strings.Contains(out, "alternatives") {
		t.Errorf("formatted Muse-D table malformed:\n%s", out)
	}
}

func TestFormatMuseG(t *testing.T) {
	s, err := scenarios.ByName("Amalgam")
	if err != nil {
		t.Fatal(err)
	}
	row, err := RunMuseG(s, designer.G1, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	out := FormatMuseG([]MuseGRow{row})
	for _, want := range []string{"Amalgam", "G1", "avg quest."} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted Fig. 5 missing %q:\n%s", want, out)
		}
	}
}

func TestRangeStr(t *testing.T) {
	if rangeStr(3, 3) != "3" || rangeStr(3, 4) != "3-4" {
		t.Error("rangeStr wrong")
	}
}
