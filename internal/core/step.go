package core

import (
	"context"
	"fmt"
	"sync"

	"muse/internal/mapping"
	"muse/internal/obs"
)

// ErrInvalidAnswer marks an answer that does not fit the pending
// question (wrong kind, scenario outside {1,2}, or choice indexes out
// of range). Submitting an invalid answer does NOT advance or kill the
// session; the same question stays pending. The HTTP server maps this
// to 422 invalid_answer.
var ErrInvalidAnswer = fmt.Errorf("core: answer does not fit the pending question")

// Answer is one designer reply submitted to a Stepper.
type Answer struct {
	// Scenario answers a grouping question: 1 selects Scenario1, 2
	// selects Scenario2.
	Scenario int
	// Choices answers a disambiguation question: per or-group, the
	// 0-based indexes of the selected alternatives (at least one each;
	// several select multiple interpretations).
	Choices [][]int
}

// Step is the externally visible state of a Stepper: exactly one of a
// pending grouping question, a pending choice question, or the
// terminal state (Done with Result or Err).
type Step struct {
	// Seq numbers the questions of the session starting at 1; terminal
	// steps carry the count of questions answered.
	Seq int
	// Grouping is the pending Muse-G question, if any.
	Grouping *GroupingQuestion
	// Choice is the pending Muse-D question, if any.
	Choice *ChoiceQuestion
	// Done reports the dialog has ended; Result or Err says how.
	Done bool
	// Result is the refined, unambiguous mapping set (terminal success).
	Result *mapping.Set
	// Err is the terminal failure, when the pipeline aborted (designer
	// context cancelled, invalid example, stepper closed).
	Err error
}

// pendingQ carries one wizard question across the inversion boundary,
// with the channel the answer travels back on.
type pendingQ struct {
	g     *GroupingQuestion
	c     *ChoiceQuestion
	reply chan Answer
}

// Stepper inverts the callback-style wizard dialog (Session.Run calls
// the designer; the designer blocks) into a resumable question/answer
// state machine: the pipeline runs in its own goroutine against a
// channel-backed designer, and callers pull the pending question with
// Step and push replies with Answer — exactly the shape an HTTP
// handler needs to serve one wizard session across many requests
// (Sec. III/IV dialogs over the wire).
//
// A Stepper is NOT safe for concurrent use: callers serialize Step /
// Answer / Close themselves (the server's SessionManager holds a
// per-session mutex). Close may be called concurrently with the
// others; it is idempotent.
//
// Cancellation semantics: the context passed to Answer (or NewStepper,
// for the work leading to the first question) bounds the wizard work
// that computing the next question requires — example retrieval and
// the two scenario chases. Once that context is cancelled, in-flight
// work aborts promptly and the session transitions to the terminal
// failed state: the dialog cannot be resumed mid-question, and
// replaying it is cheap by design (the paper's point is that dialogs
// are short).
type Stepper struct {
	session *Session

	// lifetime is cancelled by Close; the channel designer selects on
	// it so the pipeline goroutine can never leak.
	lifetime context.Context
	cancel   context.CancelFunc

	questions chan *pendingQ
	finished  chan struct{}
	result    *mapping.Set
	runErr    error

	cur *pendingQ
	seq int

	// accepted logs every answer the dialog has accepted, in order.
	// Replaying this prefix over a fresh copy of the scenario rebuilds
	// the exact dialog state (ResumeStepper): the wizards are
	// deterministic in (scenario, answers), which internal/crosscheck's
	// wizard oracle proves byte-for-byte.
	accepted []Answer

	// stopRelay releases the context.AfterFunc relay that ties the
	// currently installed work context to lifetime.
	stopRelay func() bool

	// stepSpan is the open core.step span covering the wizard work
	// toward the next question (opened by NewStepper/Answer, ended when
	// Step delivers). Callers serialize Step/Answer, so no lock.
	stepSpan *obs.Span

	closeOnce sync.Once
}

// obsHandle returns the session's observability bundle (nil when the
// session is uninstrumented; every use is nil-safe).
func (st *Stepper) obsHandle() *obs.Obs {
	if st.session == nil || st.session.Grouping == nil {
		return nil
	}
	return st.session.Grouping.Obs
}

// endStepSpan closes the open core.step span, if any.
func (st *Stepper) endStepSpan() {
	if st.stepSpan != nil {
		st.stepSpan.Attr("seq", st.seq).End()
		st.stepSpan = nil
	}
}

// NewStepper starts the full design pipeline (Muse-D then Muse-G, as
// Session.Run) over the mapping set and returns a stepper holding its
// dialog. ctx bounds the work up to the first pending question. The
// caller must eventually Close the stepper (finishing the dialog also
// suffices) or the pipeline goroutine blocks forever on its next
// question.
func NewStepper(ctx context.Context, s *Session, set *mapping.Set) *Stepper {
	lifetime, cancel := context.WithCancel(context.Background())
	st := &Stepper{
		session:   s,
		lifetime:  lifetime,
		cancel:    cancel,
		questions: make(chan *pendingQ),
		finished:  make(chan struct{}),
	}
	// The work toward the first question runs under a core.step span
	// parented into ctx's trace (when one is carried): install hands
	// the span-deriving context to the wizards, so their chase/query
	// spans become its children.
	sp, wctx := st.obsHandle().StartCtx(ctx, obs.SpanCoreStep)
	st.stepSpan = sp
	st.install(wctx)
	d := &chanDesigner{st: st}
	d.p.reply = make(chan Answer)
	go func() {
		out, err := s.Run(set, d, d)
		st.result, st.runErr = out, err
		close(st.finished)
	}()
	return st
}

// install points both wizards at a work context derived from the
// request context reqCtx but also cancelled when the stepper's
// lifetime ends. It must only be called while the pipeline goroutine
// is parked (before it starts, or while it waits for an answer): the
// subsequent channel send/receive gives the goroutine a happens-before
// edge to the new Ctx values.
func (st *Stepper) install(reqCtx context.Context) {
	if reqCtx == nil {
		reqCtx = context.Background()
	}
	if st.stopRelay != nil {
		st.stopRelay()
	}
	work, cancel := context.WithCancel(reqCtx)
	st.stopRelay = context.AfterFunc(st.lifetime, cancel)
	st.session.Grouping.Ctx = work
	st.session.Disambiguation.Ctx = work
}

// chanDesigner implements GroupingDesigner and DisambiguationDesigner
// by shipping each question to the stepper and blocking until the
// answer arrives (or the stepper is closed).
//
// The envelope p and its reply channel are allocated once and reused
// for every question: questions are strictly serialized (one pending
// at a time), and each reuse is separated from the last by the
// questions-send / reply-receive handoffs, whose happens-before edges
// make the field rewrites safe. The question objects the envelope
// points at are freshly built by the wizards each ask, so Step values
// handed out earlier never alias a later question.
type chanDesigner struct {
	st *Stepper
	p  pendingQ
}

func (d *chanDesigner) ask() (Answer, error) {
	select {
	case d.st.questions <- &d.p:
	case <-d.st.lifetime.Done():
		return Answer{}, d.st.lifetime.Err()
	}
	select {
	case a := <-d.p.reply:
		return a, nil
	case <-d.st.lifetime.Done():
		return Answer{}, d.st.lifetime.Err()
	}
}

// ChooseScenario implements GroupingDesigner.
func (d *chanDesigner) ChooseScenario(q *GroupingQuestion) (int, error) {
	d.p.g, d.p.c = q, nil
	a, err := d.ask()
	if err != nil {
		return 0, err
	}
	return a.Scenario, nil
}

// SelectValues implements DisambiguationDesigner.
func (d *chanDesigner) SelectValues(q *ChoiceQuestion) ([][]int, error) {
	d.p.g, d.p.c = nil, q
	a, err := d.ask()
	if err != nil {
		return nil, err
	}
	return a.Choices, nil
}

// Step returns the current step: the pending question, or the terminal
// state. It blocks (under ctx) while the pipeline is computing the
// next question; a ctx abort returns ctx.Err() without advancing the
// dialog.
func (st *Stepper) Step(ctx context.Context) (Step, error) {
	if st.cur != nil {
		return st.pendingStep(), nil
	}
	select {
	case <-st.finished:
		st.endStepSpan()
		return st.terminalStep(), nil
	default:
	}
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case p := <-st.questions:
		st.seq++
		st.cur = p
		st.endStepSpan()
		return st.pendingStep(), nil
	case <-st.finished:
		st.endStepSpan()
		return st.terminalStep(), nil
	case <-ctx.Done():
		return Step{}, ctx.Err()
	}
}

func (st *Stepper) pendingStep() Step {
	return Step{Seq: st.seq, Grouping: st.cur.g, Choice: st.cur.c}
}

func (st *Stepper) terminalStep() Step {
	return Step{Seq: st.seq, Done: true, Result: st.result, Err: st.runErr}
}

// Answer validates a against the pending question, delivers it, and
// returns the next step. The wizard work computing the next question
// runs under ctx: cancelling it aborts the work promptly and leaves
// the session terminally failed. An ErrInvalidAnswer leaves the
// pending question untouched.
func (st *Stepper) Answer(ctx context.Context, a Answer) (Step, error) {
	cur, err := st.Step(ctx)
	if err != nil {
		return Step{}, err
	}
	if cur.Done {
		return Step{}, fmt.Errorf("core: session already finished: %w", ErrInvalidAnswer)
	}
	if err := validateAnswer(st.cur, a); err != nil {
		return Step{}, err
	}
	// One core.step span per accepted answer: it parents the wizard
	// work toward the next question (install hands its context to the
	// wizards) and ends when Step delivers that question.
	st.endStepSpan()
	sp, wctx := st.obsHandle().StartCtx(ctx, obs.SpanCoreStep)
	st.stepSpan = sp
	st.install(wctx)
	p := st.cur
	st.cur = nil
	select {
	case p.reply <- a:
	case <-st.lifetime.Done():
		return Step{}, st.lifetime.Err()
	}
	// The answer is accepted the moment the pipeline consumes it: log it
	// before waiting on the next question, so a dialog that dies while
	// computing that question (request context cancelled) still has the
	// complete accepted prefix available for replay.
	st.accepted = append(st.accepted, cloneAnswer(a))
	step, err := st.Step(ctx)
	if err == nil && step.Done && ctx != nil && ctx.Err() != nil {
		// The pipeline ended on the request's dead context before Step
		// looked at ctx: the answer stays accepted, the request fails.
		return Step{}, ctx.Err()
	}
	return step, err
}

// cloneAnswer deep-copies an answer so the log is immune to callers
// reusing choice slices.
func cloneAnswer(a Answer) Answer {
	if a.Choices == nil {
		return a
	}
	cs := make([][]int, len(a.Choices))
	for i, sel := range a.Choices {
		cs[i] = append([]int(nil), sel...)
	}
	return Answer{Scenario: a.Scenario, Choices: cs}
}

// Accepted reports how many answers the dialog has accepted so far.
// Like Step/Answer it must be called with the stepper serialized.
func (st *Stepper) Accepted() int { return len(st.accepted) }

// ResumeStepper rebuilds a dialog from an accepted-answer snapshot by
// replaying it through the ordinary step path over a fresh session:
// the wizards are deterministic in (scenario, answers), so the resumed
// stepper's pending question, remaining dialog, and final mapping set
// are byte-identical to the uninterrupted run's. A snapshot that does
// not fit the dialog (answers past the end, or an answer the pending
// question rejects) closes the stepper and reports an error — the
// snapshot belongs to some other scenario state and cannot be trusted.
// ctx bounds the whole replay plus the work toward the next pending
// question; replay cost is one uninterrupted dialog's (the paper's
// dialogs are short by design).
func ResumeStepper(ctx context.Context, s *Session, set *mapping.Set, answers []Answer) (*Stepper, error) {
	st := NewStepper(ctx, s, set)
	for i, a := range answers {
		step, err := st.Step(ctx)
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("core: resume: awaiting question %d: %w", i+1, err)
		}
		if step.Done {
			st.Close()
			return nil, fmt.Errorf("core: resume: dialog ended after %d of %d recorded answers (err=%v)", i, len(answers), step.Err)
		}
		if _, err := st.Answer(ctx, a); err != nil {
			st.Close()
			return nil, fmt.Errorf("core: resume: replaying answer %d of %d: %w", i+1, len(answers), err)
		}
	}
	return st, nil
}

func validateAnswer(p *pendingQ, a Answer) error {
	switch {
	case p.g != nil:
		if a.Scenario != 1 && a.Scenario != 2 {
			return fmt.Errorf("core: grouping question wants scenario 1 or 2, got %d: %w", a.Scenario, ErrInvalidAnswer)
		}
	case p.c != nil:
		if len(a.Choices) != len(p.c.Choices) {
			return fmt.Errorf("core: choice question wants %d selections, got %d: %w", len(p.c.Choices), len(a.Choices), ErrInvalidAnswer)
		}
		for gi, sel := range a.Choices {
			if len(sel) == 0 {
				return fmt.Errorf("core: or-group %d needs at least one selection: %w", gi, ErrInvalidAnswer)
			}
			for _, idx := range sel {
				if idx < 0 || idx >= len(p.c.Choices[gi].Values) {
					return fmt.Errorf("core: or-group %d selection %d out of range [0,%d): %w", gi, idx, len(p.c.Choices[gi].Values), ErrInvalidAnswer)
				}
			}
		}
	}
	return nil
}

// Done reports whether the dialog has reached its terminal state.
func (st *Stepper) Done() bool {
	select {
	case <-st.finished:
		return true
	default:
		return false
	}
}

// Result returns the terminal state (zero Step when still running).
func (st *Stepper) Result() Step {
	if !st.Done() {
		return Step{}
	}
	return st.terminalStep()
}

// Close tears the session down: the lifetime context is cancelled, so
// the pipeline goroutine unblocks (its designer calls return the
// lifetime error), any in-flight wizard work aborts through the
// AfterFunc relay, and the goroutine exits. Idempotent and safe to
// call at any time, including concurrently with Step/Answer.
func (st *Stepper) Close() {
	st.closeOnce.Do(st.cancel)
}
