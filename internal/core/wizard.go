package core

import (
	"time"

	"muse/internal/instance"
	"muse/internal/mapping"
	"muse/internal/rank"
)

// QuestionKind distinguishes the questions Muse-G can pose.
type QuestionKind int

const (
	// QuestionProbe is the ordinary Sec. III-A question: two scenarios
	// differing in whether the probed attribute joins the grouping.
	QuestionProbe QuestionKind = iota
	// QuestionKeyGrouping is the multi-key question of Sec. III-B:
	// "group by key (scenario 1) or by non-key attributes
	// (scenario 2)?"
	QuestionKeyGrouping
	// QuestionGroupMore is the incremental question: scenario 1 keeps
	// the probed attribute in the grouping, scenario 2 drops it.
	QuestionGroupMore
)

// GroupingQuestion is one question Muse-G poses: a small example
// source and two candidate target instances. The designer answers 1
// or 2.
type GroupingQuestion struct {
	Kind    QuestionKind
	Mapping *mapping.Mapping
	// SK names the grouping function under design.
	SK string
	// Probe is the attribute being probed (zero for QuestionKeyGrouping).
	Probe mapping.Expr
	// Confirmed lists the grouping attributes already confirmed.
	Confirmed []mapping.Expr
	// Source is the example instance Ie.
	Source *instance.Instance
	// Real reports whether Source was drawn from the actual instance.
	Real bool
	// Scenario1 includes the probed attribute (or, for the multi-key
	// question, groups by key); Scenario2 omits it.
	Scenario1, Scenario2 *instance.Instance
	// Include1 and Include2 are the grouping-argument lists behind the
	// two scenarios, for display.
	Include1, Include2 []mapping.Expr
	// Ranking, when the wizard has an evidence ranker attached, scores
	// the two scenarios against the real instance (option 1 is
	// Scenario1). It is advisory metadata: attaching a ranker never
	// changes which questions are posed, their order, or their content.
	Ranking *rank.Ranking
}

// GroupingDesigner answers Muse-G's questions: 1 selects Scenario1, 2
// selects Scenario2.
type GroupingDesigner interface {
	ChooseScenario(q *GroupingQuestion) (int, error)
}

// Choice is one ambiguous element of a Muse-D question with its
// candidate values (aligned with the or-group's alternatives).
type Choice struct {
	Element mapping.Expr
	Values  []instance.Value
}

// ChoiceQuestion is the single question Muse-D poses per ambiguous
// mapping: a source example and one partial target instance whose
// ambiguous elements carry choice lists.
type ChoiceQuestion struct {
	Mapping *mapping.Mapping
	Source  *instance.Instance
	Real    bool
	// Target is the partial target instance produced by chasing the
	// unambiguous part of the mapping; ambiguous slots hold nulls.
	Target *instance.Instance
	// Choices lists, per or-group, the candidate values.
	Choices []Choice
	// Rankings, when the wizard has an evidence ranker attached, holds
	// one ranking per or-group, aligned with Choices (option i scores
	// the i-th alternative). Advisory metadata only.
	Rankings []rank.Ranking
}

// DisambiguationDesigner fills in the choices: for each or-group, the
// indexes of the selected alternatives (at least one each; more than
// one selects multiple interpretations).
type DisambiguationDesigner interface {
	SelectValues(q *ChoiceQuestion) ([][]int, error)
}

// SKStats records Muse-G effort for one grouping function, feeding the
// Fig. 5 experiment columns.
type SKStats struct {
	Mapping string
	SK      string
	// PossSize is |poss(m, SK)|.
	PossSize int
	// Questions is the number of questions actually posed.
	Questions int
	// RealExamples / SyntheticExamples count how the posed questions'
	// sources were obtained.
	RealExamples      int
	SyntheticExamples int
	// ExampleTime is the total time spent constructing and retrieving
	// example instances.
	ExampleTime time.Duration
	// ExampleTuples is the total tuple count across the obtained
	// example instances (real and synthetic).
	ExampleTuples int
	// Result is the designed grouping argument list.
	Result []mapping.Expr
}

// Stats aggregates per-SK records.
type Stats struct {
	SKs []SKStats
}

// TotalQuestions sums questions across all designed grouping
// functions.
func (s *Stats) TotalQuestions() int {
	n := 0
	for _, r := range s.SKs {
		n += r.Questions
	}
	return n
}

// AvgQuestions returns the mean number of questions per grouping
// function.
func (s *Stats) AvgQuestions() float64 {
	if len(s.SKs) == 0 {
		return 0
	}
	return float64(s.TotalQuestions()) / float64(len(s.SKs))
}

// AvgPoss returns the mean |poss(m, SK)|.
func (s *Stats) AvgPoss() float64 {
	if len(s.SKs) == 0 {
		return 0
	}
	n := 0
	for _, r := range s.SKs {
		n += r.PossSize
	}
	return float64(n) / float64(len(s.SKs))
}

// RealFraction returns the fraction of posed questions whose example
// was drawn from the real instance.
func (s *Stats) RealFraction() float64 {
	real, total := 0, 0
	for _, r := range s.SKs {
		real += r.RealExamples
		total += r.RealExamples + r.SyntheticExamples
	}
	if total == 0 {
		return 0
	}
	return float64(real) / float64(total)
}

// AvgExampleTime returns the mean example construction/retrieval time
// per question.
func (s *Stats) AvgExampleTime() time.Duration {
	total := time.Duration(0)
	n := 0
	for _, r := range s.SKs {
		total += r.ExampleTime
		n += r.RealExamples + r.SyntheticExamples
	}
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
}
