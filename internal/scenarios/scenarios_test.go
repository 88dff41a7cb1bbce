package scenarios_test

import (
	"testing"

	"muse/internal/chase"
	"muse/internal/mapping"
	"muse/internal/scenarios"
)

// expected pins the measured characteristics of each synthetic
// scenario, with the paper's numbers in the comments; a regression
// here means the reproduction drifted.
var expected = map[string]struct {
	mappings, ambiguous, groupingSets, alternatives int
}{
	"Mondial": {mappings: 27, ambiguous: 7, groupingSets: 8, alternatives: 142}, // paper: 26 / 7 / 8 / 208
	"DBLP":    {mappings: 6, ambiguous: 0, groupingSets: 6, alternatives: 0},    // paper: 4 / 0 / 6 / 0
	"TPCH":    {mappings: 5, ambiguous: 1, groupingSets: 4, alternatives: 16},   // paper: 5 / 1 / 4 / 16
	"Amalgam": {mappings: 14, ambiguous: 0, groupingSets: 2, alternatives: 0},   // paper: 14 / 0 / 2 / 0
}

func TestScenarioCharacteristics(t *testing.T) {
	for _, s := range scenarios.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			want := expected[s.Name]
			set, err := s.Generate()
			if err != nil {
				t.Fatal(err)
			}
			if got := len(set.Mappings); got != want.mappings {
				t.Errorf("mappings = %d, want %d", got, want.mappings)
			}
			amb := set.Ambiguous()
			if len(amb) != want.ambiguous {
				t.Errorf("ambiguous = %d, want %d", len(amb), want.ambiguous)
			}
			alts := 0
			for _, m := range amb {
				alts += m.AlternativeCount()
			}
			if alts != want.alternatives {
				t.Errorf("alternatives = %d, want %d", alts, want.alternatives)
			}
			if got := s.GroupingSets(); got != want.groupingSets {
				t.Errorf("grouping sets = %d, want %d (= paper)", got, want.groupingSets)
			}
		})
	}
}

func TestScenarioInstancesValid(t *testing.T) {
	for _, s := range scenarios.All() {
		in := s.NewInstance(0.1)
		if v := s.Src.Check(in); len(v) != 0 {
			t.Errorf("%s: generated instance violates constraints: %v", s.Name, v[0])
		}
		if in.TupleCount() == 0 {
			t.Errorf("%s: generated instance is empty", s.Name)
		}
	}
}

func TestScenarioInstancesDeterministic(t *testing.T) {
	for _, s := range scenarios.All() {
		a := s.NewInstance(0.05)
		b := s.NewInstance(0.05)
		if !a.Equal(b) {
			t.Errorf("%s: two generations with the same seed differ", s.Name)
		}
	}
}

func TestScenarioInstanceScales(t *testing.T) {
	for _, s := range scenarios.All() {
		small := s.NewInstance(0.05)
		big := s.NewInstance(0.2)
		if big.TupleCount() <= small.TupleCount() {
			t.Errorf("%s: scale 0.2 (%d tuples) not larger than scale 0.05 (%d tuples)",
				s.Name, big.TupleCount(), small.TupleCount())
		}
	}
}

// TestScenarioMappingsChase: every generated mapping (with ambiguity
// resolved to the first interpretation) chases a small instance
// without error and populates some target data.
func TestScenarioMappingsChase(t *testing.T) {
	for _, s := range scenarios.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			set, err := s.Generate()
			if err != nil {
				t.Fatal(err)
			}
			in := s.NewInstance(0.02)
			var ms []*mapping.Mapping
			for _, m := range set.Mappings {
				if m.Ambiguous() {
					m = m.Interpretation(make([]int, len(m.OrGroups)))
				}
				ms = append(ms, m)
			}
			out, err := chase.Chase(in, ms...)
			if err != nil {
				t.Fatal(err)
			}
			if out.TupleCount() == 0 {
				t.Error("chase produced an empty target")
			}
			ok, err := chase.IsSolution(in, out, ms...)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Error("chase result is not a solution")
			}
		})
	}
}

func TestByName(t *testing.T) {
	s, err := scenarios.ByName("TPCH")
	if err != nil || s.Name != "TPCH" {
		t.Errorf("ByName(TPCH) = %v, %v", s, err)
	}
	if _, err := scenarios.ByName("Nope"); err == nil {
		t.Error("ByName accepted unknown scenario")
	}
}

func TestFigureFixtures(t *testing.T) {
	f1 := scenarios.NewFigure1(true)
	for _, st := range f1.Src.Sets {
		if !f1.SrcDeps.SingleKeyedFDs(st) {
			t.Errorf("Figure 1 with keys should be single-keyed, %s is not", st.Path)
		}
	}
	if v := f1.SrcDeps.Check(f1.Source); len(v) != 0 {
		t.Errorf("Fig. 2 source instance invalid: %v", v[0])
	}
	f4 := scenarios.NewFigure4()
	if f4.MA.AlternativeCount() != 4 {
		t.Error("Figure 4 mapping should encode 4 interpretations")
	}
	if v := f4.SrcDeps.Check(f4.Source); len(v) != 0 {
		t.Errorf("Fig. 4 source instance invalid: %v", v[0])
	}
}
