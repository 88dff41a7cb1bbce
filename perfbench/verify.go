package main

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"muse/internal/core"
	"muse/internal/parser"
	"muse/internal/query"
	"muse/internal/server"
)

// verify replays each dialog's wire answers in process through
// core.ResumeStepper, over a session configured like the Manager's, and
// requires the wire's outcome: the same question count and the same
// refined mappings. Dialogs with identical scripts are replayed once.
func verify(scen map[string]*server.Scenario, auto float64, dialogs []*dialogRec) {
	stores := make(map[string]*query.IndexStore)
	for name, sc := range scen {
		if sc.Real != nil {
			stores[name] = query.NewIndexStore(sc.Real)
		}
	}
	groups := make(map[string][]*dialogRec)
	var keys []string
	for _, d := range dialogs {
		if d.err != nil {
			continue
		}
		k := d.scenario + fmt.Sprint(d.answers)
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], d)
	}
	jobs := make(chan []*dialogRec)
	var wg sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ds := range jobs {
				name := ds[0].scenario
				want, err := replay(scen[name], stores[name], auto, ds[0].answers)
				for _, d := range ds {
					if err != nil {
						d.err = fmt.Errorf("dialog %d: %w", d.index, err)
					} else {
						d.err = want.check(d)
					}
				}
			}
		}()
	}
	for _, k := range keys {
		jobs <- groups[k]
	}
	close(jobs)
	wg.Wait()
}

// replayed is the outcome of replaying a dialog's answers in process.
type replayed struct {
	questions int
	done      bool
	mappings  []wireMapping
}

func replay(sc *server.Scenario, store *query.IndexStore, auto float64, answers []core.Answer) (replayed, error) {
	cs := core.NewSession(sc.Deps, sc.Real)
	if store != nil {
		cs.Grouping.Store = store
		cs.Disambiguation.Store = store
	}
	cs.Grouping.Prefetch = false
	if auto > 0 {
		cs.Rank(auto)
	}
	ctx := context.Background()
	st, err := core.ResumeStepper(ctx, cs, sc.Set, answers)
	if err != nil {
		return replayed{}, fmt.Errorf("replay: %w", err)
	}
	defer st.Close()
	step, err := st.Step(ctx)
	if err != nil {
		return replayed{}, fmt.Errorf("replay: %w", err)
	}
	if step.Err != nil {
		return replayed{}, fmt.Errorf("replay: %w", step.Err)
	}
	r := replayed{questions: step.Seq, done: step.Done}
	if !step.Done {
		return r, nil
	}
	for _, m := range step.Result.Mappings {
		r.mappings = append(r.mappings, wireMapping{Name: m.Name, Text: parser.FormatMapping(m)})
	}
	return r, nil
}

func (r replayed) check(d *dialogRec) error {
	switch {
	case d.cut:
		// Cut with question n pending: the replay of its n-1 answers
		// must be waiting on question n too.
		if r.done || r.questions != d.questions {
			return fmt.Errorf("dialog %d: cut at question %d, the replay is at question %d (done %v)", d.index, d.questions, r.questions, r.done)
		}
		return nil
	case !r.done:
		return fmt.Errorf("dialog %d: the replay did not finish after the dialog's %d answers", d.index, len(d.answers))
	case d.result.State != "done":
		return fmt.Errorf("dialog %d: result state %q", d.index, d.result.State)
	case d.questions != r.questions || d.result.Questions != r.questions:
		return fmt.Errorf("dialog %d: %d questions on the wire (result says %d), the replay asked %d",
			d.index, d.questions, d.result.Questions, r.questions)
	case !slices.Equal(d.result.Mappings, r.mappings):
		return fmt.Errorf("dialog %d: refined mappings differ from the replay's", d.index)
	}
	return nil
}
