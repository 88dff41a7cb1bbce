package crosscheck

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"muse/internal/core"
	"muse/internal/obs"
	"muse/internal/server"
	"muse/internal/server/walstore"
)

// CheckResume runs the resume oracle: recovery-by-replay must be
// invisible. A dialog killed after any number of accepted answers and
// rebuilt from its recorded prefix (core.ResumeStepper) must ask the
// remaining questions byte-identically and land on the same refined
// mapping set; and the same property must hold through the real
// durability stack — a WAL-backed session manager torn down without
// ceremony and reopened over the same directory, including after a
// torn-tail crash write (lose exactly the unacknowledged suffix) and
// after mid-file corruption (the token must report ErrGone, never a
// silently wrong dialog).
func CheckResume(cfg Config) []Failure {
	cfg = cfg.withDefaults()
	var fails []Failure
	for _, wc := range wizardCases() {
		for k := 0; k < cfg.Cases; k++ {
			seed := cfg.Seed + int64(k)*7919
			name := fmt.Sprintf("%s/seed%d", wc.name, seed)
			// Kill at every index for the first seed of each scenario;
			// one random kill index for the rest keeps the family cheap.
			exhaustive := k == 0
			if f := checkResumeCase(wc, seed, exhaustive); f != nil {
				f.Case = name
				f.Seed = cfg.Seed
				fails = append(fails, *f)
			}
		}
		cfg.logf("  resume case %s: %d kill/replay sequences", wc.name, cfg.Cases)
	}
	// Each WAL case crashes a fig1 dialog after 4 answers. Some seeded
	// answer streams finish the dialog sooner, so the cases replay the
	// first stream from cfg.Seed on that leaves a question pending,
	// found in memory so that each case's WAL holds one dialog.
	walSeed := cfg.Seed
	for walSeed < cfg.Seed+64 {
		if _, err := seedWALDialog("", walSeed, 4); err == nil {
			break
		}
		walSeed++
	}
	for _, chk := range []struct {
		name string
		fn   func(int64) *Failure
	}{
		{"wal-crash-reopen", checkWALCrashReopen},
		{"wal-torn-tail", checkWALTornTail},
		{"wal-corrupt", checkWALCorrupt},
	} {
		f := chk.fn(walSeed)
		if f != nil {
			f.Case = chk.name
			f.Seed = cfg.Seed
			fails = append(fails, *f)
		}
		cfg.logf("  resume case %s: ok=%v", chk.name, f == nil)
	}
	return fails
}

// stepTrace is one uninterrupted reference dialog: the rendered
// question before each accepted answer, the answers, and the terminal
// outcome.
type stepTrace struct {
	questions []string
	answers   []core.Answer
	final     string // formatMappingSet on success
	errText   string // terminal error text, "" on success
}

// seededAnswer mirrors the wizard recorder's answer policy for a
// Stepper-shaped question, drawing from the same kind of rand stream.
func seededAnswer(step core.Step, r *rand.Rand) core.Answer {
	if step.Grouping != nil {
		return core.Answer{Scenario: 1 + r.Intn(2)}
	}
	choices := make([][]int, len(step.Choice.Choices))
	for gi, ch := range step.Choice.Choices {
		var sel []int
		for i := range ch.Values {
			if r.Float64() < 0.5 {
				sel = append(sel, i)
			}
		}
		if len(sel) == 0 {
			sel = []int{r.Intn(len(ch.Values))}
		}
		choices[gi] = sel
	}
	return core.Answer{Choices: choices}
}

// runReference drives one full seeded dialog and records the trace.
func runReference(wc wizardCase, seed int64) (stepTrace, error) {
	var tr stepTrace
	sd, real, set := wc.build()
	st := core.NewStepper(context.Background(), core.NewSession(sd, real), set)
	defer st.Close()
	r := rand.New(rand.NewSource(seed))
	for i := 0; ; i++ {
		step, err := st.Step(context.Background())
		if err != nil {
			return tr, fmt.Errorf("reference Step %d: %w", i+1, err)
		}
		if step.Done {
			if step.Err != nil {
				tr.errText = step.Err.Error()
			} else {
				tr.final = formatMappingSet(step.Result)
			}
			return tr, nil
		}
		tr.questions = append(tr.questions, renderStepQ(step))
		a := seededAnswer(step, r)
		tr.answers = append(tr.answers, a)
		if _, err := st.Answer(context.Background(), a); err != nil {
			return tr, fmt.Errorf("reference answer %d: %w", i+1, err)
		}
	}
}

func checkResumeCase(wc wizardCase, seed int64, exhaustive bool) *Failure {
	fail := func(detail string) *Failure {
		return &Failure{Oracle: "resume", Detail: detail}
	}
	tr, err := runReference(wc, seed)
	if err != nil {
		return fail(err.Error())
	}
	kills := []int{}
	if exhaustive {
		for k := 0; k <= len(tr.answers); k++ {
			kills = append(kills, k)
		}
	} else if len(tr.answers) > 0 {
		kills = append(kills, rand.New(rand.NewSource(seed+13)).Intn(len(tr.answers)+1))
	}
	for _, k := range kills {
		if f := replayFrom(wc, tr, k); f != nil {
			f.Detail = fmt.Sprintf("kill after %d of %d answers: %s", k, len(tr.answers), f.Detail)
			return f
		}
	}
	return nil
}

// replayFrom resumes a fresh scenario copy from the first k recorded
// answers and finishes the dialog, demanding byte-identity throughout.
func replayFrom(wc wizardCase, tr stepTrace, k int) *Failure {
	fail := func(detail string) *Failure {
		return &Failure{Oracle: "resume", Detail: detail}
	}
	sd, real, set := wc.build()
	st, err := core.ResumeStepper(context.Background(), core.NewSession(sd, real), set, tr.answers[:k])
	if err != nil {
		return fail(fmt.Sprintf("ResumeStepper: %v", err))
	}
	defer st.Close()
	for i := k; ; i++ {
		step, err := st.Step(context.Background())
		if err != nil {
			return fail(fmt.Sprintf("resumed Step %d: %v", i+1, err))
		}
		if step.Done {
			if i != len(tr.answers) {
				return fail(fmt.Sprintf("resumed dialog ended after %d answers, reference took %d", i, len(tr.answers)))
			}
			switch {
			case step.Err != nil && step.Err.Error() != tr.errText:
				return fail(fmt.Sprintf("terminal error diverged: %q vs reference %q", step.Err, tr.errText))
			case step.Err == nil && tr.errText != "":
				return fail(fmt.Sprintf("resumed dialog succeeded, reference failed with %q", tr.errText))
			case step.Err == nil:
				if got := formatMappingSet(step.Result); got != tr.final {
					return fail(fmt.Sprintf("refined mapping sets differ:\n--- reference ---\n%s\n--- resumed ---\n%s", tr.final, got))
				}
			}
			return nil
		}
		if i >= len(tr.answers) {
			return fail(fmt.Sprintf("resumed dialog asked more than the %d reference questions", len(tr.answers)))
		}
		if got := renderStepQ(step); got != tr.questions[i] {
			return fail(fmt.Sprintf("question %d diverged:\n--- reference ---\n%s\n--- resumed ---\n%s", i+1, tr.questions[i], got))
		}
		if _, err := st.Answer(context.Background(), tr.answers[i]); err != nil {
			return fail(fmt.Sprintf("resumed answer %d: %v", i+1, err))
		}
	}
}

// walEnv is one live manager-over-walstore stack plus the rendered
// pending question of a part-way fig1 dialog.
type walEnv struct {
	dir     string
	token   string
	pending string // renderStepQ of the question after the answers
}

// seedWALDialog creates a WAL-backed fig1 session (in memory when dir
// is ""), accepts answers answers through the manager (the durable
// path), and tears the whole stack down without Complete/Delete — a
// crash in miniature.
func seedWALDialog(dir string, seed int64, answers int) (walEnv, error) {
	env := walEnv{dir: dir}
	mg := server.NewManager(server.Builtin(), obs.New())
	if dir != "" {
		ws, _, err := walstore.Open(dir, walstore.Options{})
		if err != nil {
			return env, err
		}
		defer ws.Close()
		mg.Store = ws
	}
	defer mg.Close()
	sess, err := mg.Create(context.Background(), "fig1")
	if err != nil {
		return env, err
	}
	env.token = sess.Token
	r := rand.New(rand.NewSource(seed))
	step, err := sess.Stepper.Step(context.Background())
	for i := 0; i < answers; i++ {
		if err != nil || step.Done {
			break
		}
		step, err = mg.Answer(context.Background(), sess, seededAnswer(step, r))
	}
	if err == nil && !step.Done {
		env.pending = renderStepQ(step)
	}
	sess.Release()
	if err != nil {
		return env, err
	}
	if env.pending == "" {
		return env, fmt.Errorf("fig1 dialog ended within %d answers", answers)
	}
	return env, nil
}

// reopenAndRender boots a fresh manager over the directory and renders
// the resumed session's pending question.
func reopenAndRender(env walEnv) (string, walstore.RecoveryStats, error) {
	ws, stats, err := walstore.Open(env.dir, walstore.Options{})
	if err != nil {
		return "", stats, err
	}
	defer ws.Close()
	mg := server.NewManager(server.Builtin(), obs.New())
	mg.Store = ws
	defer mg.Close()
	sess, err := mg.Acquire(context.Background(), env.token)
	if err != nil {
		return "", stats, err
	}
	step, err := sess.Stepper.Step(context.Background())
	sess.Release()
	if err != nil {
		return "", stats, err
	}
	if step.Done {
		return "<terminal>", stats, nil
	}
	return renderStepQ(step), stats, nil
}

func walTempDir() (string, func(), error) {
	dir, err := os.MkdirTemp("", "muse-resume-oracle-")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// checkWALCrashReopen: kill the stack after 4 accepted answers, reopen,
// and the resumed replica must present the same pending question.
func checkWALCrashReopen(seed int64) *Failure {
	fail := func(detail string) *Failure {
		return &Failure{Oracle: "resume", Detail: detail}
	}
	dir, cleanup, err := walTempDir()
	if err != nil {
		return fail(err.Error())
	}
	defer cleanup()
	env, err := seedWALDialog(dir, seed, 4)
	if err != nil {
		return fail(fmt.Sprintf("seeding WAL dialog: %v", err))
	}
	got, stats, err := reopenAndRender(env)
	if err != nil {
		return fail(fmt.Sprintf("resume after crash: %v", err))
	}
	if stats.Sessions != 1 || stats.TornTails != 0 || stats.Corrupt != 0 {
		return fail(fmt.Sprintf("recovery stats after clean crash = %+v", stats))
	}
	if got != env.pending {
		return fail(fmt.Sprintf("pending question diverged across crash/reopen:\n--- before ---\n%s\n--- resumed ---\n%s", env.pending, got))
	}
	return nil
}

// checkWALTornTail: a crash mid-append leaves a sheared final record;
// recovery must truncate exactly that record and resume the dialog at
// the previous accepted answer — the 3-answer state, not an error.
func checkWALTornTail(seed int64) *Failure {
	fail := func(detail string) *Failure {
		return &Failure{Oracle: "resume", Detail: detail}
	}
	dir, cleanup, err := walTempDir()
	if err != nil {
		return fail(err.Error())
	}
	defer cleanup()
	// Reference: the pending question after 3 answers of this seed.
	refDir, refCleanup, err := walTempDir()
	if err != nil {
		return fail(err.Error())
	}
	defer refCleanup()
	ref, err := seedWALDialog(refDir, seed, 3)
	if err != nil {
		return fail(fmt.Sprintf("seeding reference dialog: %v", err))
	}
	env, err := seedWALDialog(dir, seed, 4)
	if err != nil {
		return fail(fmt.Sprintf("seeding WAL dialog: %v", err))
	}
	path := filepath.Join(dir, env.token+".wal")
	data, err := os.ReadFile(path)
	if err != nil {
		return fail(err.Error())
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		return fail(err.Error())
	}
	got, stats, err := reopenAndRender(env)
	if err != nil {
		return fail(fmt.Sprintf("resume after torn tail: %v", err))
	}
	if stats.TornTails != 1 || stats.Sessions != 1 {
		return fail(fmt.Sprintf("recovery stats after torn tail = %+v", stats))
	}
	if got != ref.pending {
		return fail(fmt.Sprintf("torn-tail resume is not the 3-answer state:\n--- 3-answer reference ---\n%s\n--- resumed ---\n%s", ref.pending, got))
	}
	return nil
}

// checkWALCorrupt: a flipped byte before intact records must make the
// token unrecoverable (ErrGone), never a quietly different dialog.
func checkWALCorrupt(seed int64) *Failure {
	fail := func(detail string) *Failure {
		return &Failure{Oracle: "resume", Detail: detail}
	}
	dir, cleanup, err := walTempDir()
	if err != nil {
		return fail(err.Error())
	}
	defer cleanup()
	env, err := seedWALDialog(dir, seed, 4)
	if err != nil {
		return fail(fmt.Sprintf("seeding WAL dialog: %v", err))
	}
	path := filepath.Join(dir, env.token+".wal")
	data, err := os.ReadFile(path)
	if err != nil {
		return fail(err.Error())
	}
	i := len(data) / 3
	for data[i] == '\n' {
		i++
	}
	data[i] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fail(err.Error())
	}
	_, stats, err := reopenAndRender(env)
	if !errors.Is(err, server.ErrGone) {
		return fail(fmt.Sprintf("corrupt log resumed with err=%v (stats %+v), want ErrGone", err, stats))
	}
	return nil
}
