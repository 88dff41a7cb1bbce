package crosscheck

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"muse/internal/core"
	"muse/internal/deps"
	"muse/internal/instance"
	"muse/internal/mapping"
	"muse/internal/parser"
	"muse/internal/scenarios"
)

// wizardCase is one dialog input: the scenario pieces a session needs,
// plus a constructor so the replay gets a fresh, state-free copy.
type wizardCase struct {
	name  string
	build func() (*deps.Set, *instance.Instance, *mapping.Set)
}

func wizardCases() []wizardCase {
	return []wizardCase{
		{"fig1-keys", func() (*deps.Set, *instance.Instance, *mapping.Set) {
			f := scenarios.NewFigure1(true)
			return f.SrcDeps, f.Source, f.Set
		}},
		{"fig1-nokeys", func() (*deps.Set, *instance.Instance, *mapping.Set) {
			f := scenarios.NewFigure1(false)
			return f.SrcDeps, f.Source, f.Set
		}},
		{"fig4", func() (*deps.Set, *instance.Instance, *mapping.Set) {
			f := scenarios.NewFigure4()
			return f.SrcDeps, f.Source, f.Set
		}},
	}
}

// qa is one recorded exchange: the rendered question and the answer
// given.
type qa struct {
	question string
	answer   core.Answer
}

// recorder answers wizard questions from a seeded rand stream and
// records every exchange.
type recorder struct {
	r   *rand.Rand
	log []qa
}

func (rc *recorder) ChooseScenario(q *core.GroupingQuestion) (int, error) {
	ans := 1 + rc.r.Intn(2)
	rc.log = append(rc.log, qa{renderGroupingQ(q), core.Answer{Scenario: ans}})
	return ans, nil
}

func (rc *recorder) SelectValues(q *core.ChoiceQuestion) ([][]int, error) {
	choices := make([][]int, len(q.Choices))
	for gi, ch := range q.Choices {
		// A random non-empty subset of the group's alternatives.
		var sel []int
		for i := range ch.Values {
			if rc.r.Float64() < 0.5 {
				sel = append(sel, i)
			}
		}
		if len(sel) == 0 {
			sel = []int{rc.r.Intn(len(ch.Values))}
		}
		choices[gi] = sel
	}
	rc.log = append(rc.log, qa{renderChoiceQ(q), core.Answer{Choices: choices}})
	return choices, nil
}

// CheckWizard runs the wizard oracle: a callback-style Session.Run
// with a seeded random designer records the dialog, then a Stepper
// over a fresh copy of the same scenario replays the recorded answers
// — questions, question order, and the refined mapping set must be
// byte-identical, and injected invalid answers must bounce with
// ErrInvalidAnswer leaving the pending question untouched. Its
// coincide leg then requires every Muse-G question to show two
// scenarios that differ (checkCoincide).
func CheckWizard(cfg Config) []Failure {
	cfg = cfg.withDefaults()
	return append(checkDialogs(cfg), checkCoincide(cfg)...)
}

// checkDialogs is the wizard oracle's dialog differential and its
// cancelled-answer fault.
func checkDialogs(cfg Config) []Failure {
	var fails []Failure
	for _, wc := range wizardCases() {
		// cfg.Cases random answer sequences per scenario, each with its
		// own derived seed.
		for k := 0; k < cfg.Cases; k++ {
			seed := cfg.Seed + int64(k)*7919
			name := fmt.Sprintf("%s/seed%d", wc.name, seed)
			if f := checkWizardCase(wc, seed); f != nil {
				f.Case = name
				f.Seed = cfg.Seed
				fails = append(fails, *f)
			}
		}
		cfg.logf("  wizard case %s: %d answer sequences", wc.name, cfg.Cases)
	}
	if f := checkCancelledAnswer(); f != nil {
		f.Seed = cfg.Seed
		fails = append(fails, *f)
	}
	return fails
}

// checkCancelledAnswer injects a dead context into Stepper.Answer
// mid-dialog (the "slow designer gives up" fault): the call must
// return promptly with a context error, and the session must end up
// either terminally failed or still pending the same question — never
// wedged, never silently advanced.
func checkCancelledAnswer() *Failure {
	fail := func(detail string) *Failure {
		return &Failure{Oracle: "wizard", Case: "cancel-mid-step", Detail: detail}
	}
	f := scenarios.NewFigure1(true)
	st := core.NewStepper(context.Background(), core.NewSession(f.SrcDeps, f.Source), f.Set)
	defer st.Close()
	first, err := st.Step(context.Background())
	if err != nil || first.Done {
		return fail(fmt.Sprintf("no pending first question: step=%+v err=%v", first, err))
	}
	before := renderStepQ(first)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan error, 1)
	go func() {
		_, err := st.Answer(ctx, core.Answer{Scenario: 1})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			return fail("Answer under a cancelled context reported success")
		}
	case <-time.After(10 * time.Second):
		return fail("Answer under a cancelled context hung")
	}
	// The session must still respond coherently afterwards.
	after, err := st.Step(context.Background())
	if err != nil {
		return fail(fmt.Sprintf("Step after cancelled Answer failed: %v", err))
	}
	switch {
	case after.Done && after.Err != nil:
		// Terminally failed: the documented outcome.
	case !after.Done && renderStepQ(after) == before:
		// The cancel landed before the answer was consumed; the same
		// question pending is also coherent.
	default:
		return fail(fmt.Sprintf("incoherent state after cancelled Answer: done=%v err=%v", after.Done, after.Err))
	}
	return nil
}

func checkWizardCase(wc wizardCase, seed int64) *Failure {
	fail := func(detail string) *Failure {
		return &Failure{Oracle: "wizard", Detail: detail}
	}

	// Reference run: callback-style Session.Run with the recorder.
	sd, real, set := wc.build()
	rc := &recorder{r: rand.New(rand.NewSource(seed))}
	var direct *mapping.Set
	var directErr error
	if err := guard(func() error {
		var err error
		direct, err = core.NewSession(sd, real).Run(set, rc, rc)
		directErr = err
		return nil
	}); err != nil {
		return fail(fmt.Sprintf("Session.Run panicked: %v", err))
	}

	// Replay: a Stepper over a fresh scenario copy, fed the recorded
	// answers, with invalid answers injected along the way.
	sd2, real2, set2 := wc.build()
	st := core.NewStepper(context.Background(), core.NewSession(sd2, real2), set2)
	defer st.Close()
	inject := rand.New(rand.NewSource(seed + 1))
	var finalStep core.Step
	for i := 0; ; i++ {
		step, err := st.Step(context.Background())
		if err != nil {
			return fail(fmt.Sprintf("Stepper.Step failed at question %d: %v", i+1, err))
		}
		if step.Done {
			finalStep = step
			if i != len(rc.log) {
				return fail(fmt.Sprintf("stepper asked %d questions, Session.Run asked %d", i, len(rc.log)))
			}
			break
		}
		if i >= len(rc.log) {
			return fail(fmt.Sprintf("stepper asked more than the %d recorded questions", len(rc.log)))
		}
		got := renderStepQ(step)
		if got != rc.log[i].question {
			return fail(fmt.Sprintf("question %d diverged:\n--- Session.Run ---\n%s\n--- Stepper ---\n%s", i+1, rc.log[i].question, got))
		}
		// Fault injection: invalid answers must not advance the dialog.
		if inject.Float64() < 0.5 {
			bad := invalidAnswerFor(step, inject)
			if _, err := st.Answer(context.Background(), bad); !errors.Is(err, core.ErrInvalidAnswer) {
				return fail(fmt.Sprintf("invalid answer %+v at question %d returned %v, want ErrInvalidAnswer", bad, i+1, err))
			}
			after, err := st.Step(context.Background())
			if err != nil {
				return fail(fmt.Sprintf("Step after rejected answer failed: %v", err))
			}
			if after.Done || renderStepQ(after) != got || after.Seq != step.Seq {
				return fail(fmt.Sprintf("rejected answer disturbed pending question %d", i+1))
			}
		}
		if _, err := st.Answer(context.Background(), rc.log[i].answer); err != nil {
			return fail(fmt.Sprintf("replaying recorded answer %d failed: %v", i+1, err))
		}
	}

	// Terminal states must agree: same error behavior, same refined
	// mappings byte-for-byte.
	if (directErr == nil) != (finalStep.Err == nil) {
		return fail(fmt.Sprintf("terminal error diverged: Session.Run=%v Stepper=%v", directErr, finalStep.Err))
	}
	if directErr != nil {
		if directErr.Error() != finalStep.Err.Error() {
			return fail(fmt.Sprintf("terminal error text diverged: %q vs %q", directErr, finalStep.Err))
		}
		return nil
	}
	if got, want := formatMappingSet(finalStep.Result), formatMappingSet(direct); got != want {
		return fail(fmt.Sprintf("refined mapping sets differ:\n--- Session.Run ---\n%s\n--- Stepper ---\n%s", want, got))
	}
	return nil
}

// invalidAnswerFor draws an answer guaranteed not to fit the pending
// question.
func invalidAnswerFor(step core.Step, r *rand.Rand) core.Answer {
	if step.Grouping != nil {
		bad := []int{0, 3, -1, 7}
		return core.Answer{Scenario: bad[r.Intn(len(bad))]}
	}
	switch r.Intn(3) {
	case 0: // wrong group count
		return core.Answer{Choices: make([][]int, len(step.Choice.Choices)+1)}
	case 1: // empty selection
		sel := make([][]int, len(step.Choice.Choices))
		for i := range sel {
			sel[i] = nil
		}
		return core.Answer{Choices: sel}
	default: // out-of-range index
		sel := make([][]int, len(step.Choice.Choices))
		for i, ch := range step.Choice.Choices {
			sel[i] = []int{len(ch.Values)}
		}
		return core.Answer{Choices: sel}
	}
}

func renderStepQ(step core.Step) string {
	switch {
	case step.Grouping != nil:
		return renderGroupingQ(step.Grouping)
	case step.Choice != nil:
		return renderChoiceQ(step.Choice)
	default:
		return "<terminal>"
	}
}

// renderGroupingQ flattens every field of a grouping question the
// designer can observe, so byte-equality means "the same question".
func renderGroupingQ(q *core.GroupingQuestion) string {
	var b strings.Builder
	fmt.Fprintf(&b, "grouping kind=%d mapping=%s sk=%s probe=%s real=%v\n", q.Kind, q.Mapping.Name, q.SK, q.Probe, q.Real)
	fmt.Fprintf(&b, "confirmed=%s include1=%s include2=%s\n", exprs(q.Confirmed), exprs(q.Include1), exprs(q.Include2))
	fmt.Fprintf(&b, "source:\n%sscenario1:\n%sscenario2:\n%s", q.Source, q.Scenario1, q.Scenario2)
	return b.String()
}

func renderChoiceQ(q *core.ChoiceQuestion) string {
	var b strings.Builder
	fmt.Fprintf(&b, "choice mapping=%s real=%v\n", q.Mapping.Name, q.Real)
	fmt.Fprintf(&b, "source:\n%starget:\n%s", q.Source, q.Target)
	for _, ch := range q.Choices {
		fmt.Fprintf(&b, "element %s:", ch.Element)
		for _, v := range ch.Values {
			fmt.Fprintf(&b, " %s", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func exprs(es []mapping.Expr) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = e.String()
	}
	return "[" + strings.Join(parts, ",") + "]"
}

func formatMappingSet(s *mapping.Set) string {
	var b strings.Builder
	for _, m := range s.Mappings {
		b.WriteString(parser.FormatMapping(m))
		b.WriteByte('\n')
	}
	return b.String()
}
