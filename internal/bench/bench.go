package bench

import (
	"fmt"
	"time"

	"muse/internal/core"
	"muse/internal/deps"
	"muse/internal/designer"
	"muse/internal/instance"
	"muse/internal/mapping"
	"muse/internal/obs"
	"muse/internal/scenarios"
)

// Characteristics is one row of the scenario table (Sec. VI).
type Characteristics struct {
	Scenario     string
	SizeMB       float64
	GroupingSets int
	Mappings     int
	Ambiguous    int

	PaperSizeMB       float64
	PaperGroupingSets int
	PaperMappings     int
	PaperAmbiguous    int
}

// RunCharacteristics computes the characteristics row for a scenario.
func RunCharacteristics(s *scenarios.Scenario, scale float64) (Characteristics, error) {
	set, err := s.Generate()
	if err != nil {
		return Characteristics{}, err
	}
	in := s.NewInstance(scale)
	return Characteristics{
		Scenario:     s.Name,
		SizeMB:       float64(in.SizeBytes()) / 1e6,
		GroupingSets: s.GroupingSets(),
		Mappings:     len(set.Mappings),
		Ambiguous:    len(set.Ambiguous()),

		PaperSizeMB:       s.PaperSizeMB,
		PaperGroupingSets: s.PaperGroupingSets,
		PaperMappings:     s.PaperMappings,
		PaperAmbiguous:    s.PaperAmbiguous,
	}, nil
}

// MuseGRow is one row of Fig. 5: a scenario × grouping-strategy cell.
type MuseGRow struct {
	Scenario string
	Strategy designer.Strategy
	// AvgPoss is the average |poss(m, SK)| over all designed grouping
	// functions.
	AvgPoss float64
	// AvgQuestions is the average number of questions per grouping
	// function.
	AvgQuestions float64
	// RealFraction is the fraction of questions whose example was
	// drawn from the real source instance.
	RealFraction float64
	// AvgExampleTime is the mean time to construct/retrieve one
	// example.
	AvgExampleTime time.Duration

	PaperAvgPoss float64
}

// MuseGConfig tunes a Fig. 5 run.
type MuseGConfig struct {
	// Scale sizes the source instance (1 ≈ the paper's data sizes).
	Scale float64
	// NoKeys drops the key-based question reduction (an ablation: the
	// basic Sec. III-A algorithm).
	NoKeys bool
	// NoReal disables real-example retrieval (ablation).
	NoReal bool
	// Obs, when non-nil, accumulates the run's metrics and spans
	// (threaded through the wizards, the chase and the retrievals).
	Obs *obs.Obs
}

// RunMuseG designs every grouping function of every mapping of the
// scenario with a designer who has the given strategy in mind, and
// reports the Fig. 5 columns.
func RunMuseG(s *scenarios.Scenario, strat designer.Strategy, cfg MuseGConfig) (MuseGRow, error) {
	in := s.NewInstance(cfg.Scale)
	ms, err := disambiguatedMappings(s, in, cfg.Obs)
	if err != nil {
		return MuseGRow{}, err
	}
	src := s.Src
	if cfg.NoKeys {
		// Fresh literal rather than a value copy: deps.Set carries a
		// lock guarding its memos.
		src = &deps.Set{Schema: s.Src.Schema, Cat: s.Src.Cat, FDs: s.Src.FDs, Refs: s.Src.Refs}
	}
	gw := core.NewGroupingWizard(src, in)
	gw.Obs = cfg.Obs
	if cfg.NoReal {
		gw.Real = nil
	}
	for _, m := range ms {
		if len(m.SKs) == 0 {
			continue
		}
		oracle, err := designer.StrategyOracle(strat, m)
		if err != nil {
			return MuseGRow{}, err
		}
		if _, err := gw.DesignMapping(m, oracle); err != nil {
			return MuseGRow{}, fmt.Errorf("bench: %s/%s on %s: %v", s.Name, strat, m.Name, err)
		}
	}
	row := MuseGRow{
		Scenario:       s.Name,
		Strategy:       strat,
		AvgPoss:        gw.Stats.AvgPoss(),
		AvgQuestions:   gw.Stats.AvgQuestions(),
		RealFraction:   gw.Stats.RealFraction(),
		AvgExampleTime: gw.Stats.AvgExampleTime(),
		PaperAvgPoss:   s.PaperAvgPoss,
	}
	return row, nil
}

// disambiguatedMappings resolves every ambiguous mapping with a
// first-alternative oracle (the Sec. V pipeline order: Muse-D before
// Muse-G).
func disambiguatedMappings(s *scenarios.Scenario, in *instance.Instance, o *obs.Obs) ([]*mapping.Mapping, error) {
	set, err := s.Generate()
	if err != nil {
		return nil, err
	}
	dw := core.NewDisambiguationWizard(s.Src, in)
	dw.Obs = o
	var out []*mapping.Mapping
	for _, m := range set.Mappings {
		if !m.Ambiguous() {
			out = append(out, m)
			continue
		}
		sels := make([][]int, len(m.OrGroups))
		for i := range sels {
			sels[i] = []int{0}
		}
		ms, err := dw.Disambiguate(m, &designer.ChoiceOracle{Selections: sels})
		if err != nil {
			return nil, err
		}
		out = append(out, ms...)
	}
	return out, nil
}

// MuseDRow is one row of the Muse-D table (Sec. VI).
type MuseDRow struct {
	Scenario string
	// Alternatives is the total number of interpretations encoded by
	// the scenario's ambiguous mappings.
	Alternatives int
	// Questions is the number of source/target example pairs shown
	// (one per ambiguous mapping).
	Questions int
	// IeTuplesMin/Max bound the example sizes.
	IeTuplesMin, IeTuplesMax int
	// ChoicesMin/Max bound the number of ambiguous values per target
	// instance.
	ChoicesMin, ChoicesMax int
	// RealFraction is the fraction of examples drawn from the real
	// instance (the paper reports 100%).
	RealFraction float64

	PaperAlternatives int
	PaperQuestions    int
}

// RunMuseD disambiguates every ambiguous mapping of the scenario and
// reports the Muse-D table columns.
func RunMuseD(s *scenarios.Scenario, scale float64) (MuseDRow, error) {
	return RunMuseDObs(s, scale, nil)
}

// RunMuseDObs is RunMuseD with an observability bundle threaded
// through the wizard (nil disables instrumentation).
func RunMuseDObs(s *scenarios.Scenario, scale float64, o *obs.Obs) (MuseDRow, error) {
	set, err := s.Generate()
	if err != nil {
		return MuseDRow{}, err
	}
	in := s.NewInstance(scale)
	dw := core.NewDisambiguationWizard(s.Src, in)
	dw.Obs = o
	for _, m := range set.Ambiguous() {
		sels := make([][]int, len(m.OrGroups))
		for i := range sels {
			sels[i] = []int{0}
		}
		if _, err := dw.Disambiguate(m, &designer.ChoiceOracle{Selections: sels}); err != nil {
			return MuseDRow{}, fmt.Errorf("bench: Muse-D on %s/%s: %v", s.Name, m.Name, err)
		}
	}
	row := MuseDRow{
		Scenario:          s.Name,
		Questions:         dw.Stats.TotalQuestions(),
		Alternatives:      dw.Stats.TotalAlternatives(),
		PaperAlternatives: s.PaperDAlternatives,
		PaperQuestions:    s.PaperDQuestions,
	}
	real := 0
	for i, rec := range dw.Stats.Mappings {
		if i == 0 || rec.SourceTuples < row.IeTuplesMin {
			row.IeTuplesMin = rec.SourceTuples
		}
		if rec.SourceTuples > row.IeTuplesMax {
			row.IeTuplesMax = rec.SourceTuples
		}
		if i == 0 || rec.ChoiceValues < row.ChoicesMin {
			row.ChoicesMin = rec.ChoiceValues
		}
		if rec.ChoiceValues > row.ChoicesMax {
			row.ChoicesMax = rec.ChoiceValues
		}
		if rec.Real {
			real++
		}
	}
	if n := len(dw.Stats.Mappings); n > 0 {
		row.RealFraction = float64(real) / float64(n)
	}
	return row, nil
}

// AutoRow is one row of the questions-saved table: a full design
// session (Muse-D then Muse-G over every mapping) run once
// interactively — every question answered by a designer — and once
// with the unattended auto-designer answering every decisively ranked
// question itself. Rankings are advisory, so both runs pose the same
// questions; the saving is in how many a human must answer.
type AutoRow struct {
	Scenario string
	// Questions is the dialog length (identical in both runs).
	Questions int
	// AutoAnswered is how many the auto-designer answered unattended.
	AutoAnswered int
	// Escalated is how many it handed to the human fallback — the
	// interactive cost of a `muse -auto` run.
	Escalated int
	// Saved is AutoAnswered / Questions.
	Saved float64
}

// RunAuto measures questions saved by the auto-designer on one
// scenario. The fallback designer (and the interactive baseline)
// always picks the top-ranked choice, so the two runs walk identical
// dialogs and the comparison isolates attendance, not answers.
func RunAuto(s *scenarios.Scenario, scale float64, threshold float64) (AutoRow, error) {
	set, err := s.Generate()
	if err != nil {
		return AutoRow{}, err
	}
	in := s.NewInstance(scale)
	session := core.NewSession(s.Src, in).Rank(threshold)
	ad := core.NewAutoDesigner(threshold, topRanked{}, topRanked{})
	if _, err := session.Run(set, ad, ad); err != nil {
		return AutoRow{}, fmt.Errorf("bench: auto session on %s: %v", s.Name, err)
	}
	st := ad.Stats
	row := AutoRow{
		Scenario:     s.Name,
		Questions:    st.Questions(),
		AutoAnswered: st.Auto + st.Forced,
		Escalated:    st.Escalated,
		Saved:        st.SavedFraction(),
	}
	return row, nil
}

// topRanked is the scripted stand-in for an interactive designer who
// agrees with every recommendation.
type topRanked struct{}

func (topRanked) ChooseScenario(q *core.GroupingQuestion) (int, error) {
	if q.Ranking != nil {
		return q.Ranking.Best, nil
	}
	return 1, nil
}

func (topRanked) SelectValues(q *core.ChoiceQuestion) ([][]int, error) {
	out := make([][]int, len(q.Choices))
	for i := range out {
		out[i] = []int{0}
		if len(q.Rankings) == len(q.Choices) {
			out[i] = []int{q.Rankings[i].Best - 1}
		}
	}
	return out, nil
}
