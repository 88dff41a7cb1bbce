package chase_test

import (
	"sync"
	"testing"

	"muse/internal/chase"
	"muse/internal/obs"
	"muse/internal/scenarios"
)

// TestChaseObsSharedRegistry hammers one Obs bundle from several
// concurrent chases and checks the counters add up exactly; run under
// -race it is the chase-side concurrency test of the obs substrate.
func TestChaseObsSharedRegistry(t *testing.T) {
	fig := scenarios.NewFigure1(true)

	ref := obs.New()
	if _, err := chase.ChaseObs(fig.Source, ref, fig.M1, fig.M2, fig.M3); err != nil {
		t.Fatal(err)
	}
	tuples := ref.Reg.Get(obs.MChaseTuples)
	asg := ref.Reg.Get(obs.MChaseAssignments)
	if tuples == 0 || asg == 0 {
		t.Fatalf("reference chase recorded tuples=%d assignments=%d, want both > 0", tuples, asg)
	}
	if got := ref.Reg.Get(obs.GChaseWorkers); got != 1 {
		t.Fatalf("chase workers gauge = %d, want 1", got)
	}

	o := obs.New()
	const runs = 8
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := chase.ChaseObs(fig.Source, o, fig.M1, fig.M2, fig.M3); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := o.Reg.Get(obs.MChaseRuns); got != runs {
		t.Errorf("chase runs = %d, want %d", got, runs)
	}
	if got := o.Reg.Get(obs.MChaseTuples); got != runs*tuples {
		t.Errorf("chase tuples = %d, want %d", got, runs*tuples)
	}
	if got := o.Reg.Get(obs.MChaseAssignments); got != runs*asg {
		t.Errorf("chase assignments = %d, want %d", got, runs*asg)
	}
	// One "chase" span plus one "chase.mapping" span per mapping per run.
	if got, want := o.Tr.Count(), int64(runs*(1+3)); got != want {
		t.Errorf("span count = %d, want %d", got, want)
	}
}

// TestChaseObsNilIdentical checks the nil-obs path is a true no-op:
// the chase output is byte-identical with and without instrumentation.
func TestChaseObsNilIdentical(t *testing.T) {
	fig := scenarios.NewFigure1(true)
	plain, err := chase.ChaseObs(fig.Source, nil, fig.M1, fig.M2, fig.M3)
	if err != nil {
		t.Fatal(err)
	}
	instrumented, err := chase.ChaseObs(fig.Source, obs.New(), fig.M1, fig.M2, fig.M3)
	if err != nil {
		t.Fatal(err)
	}
	if plain.String() != instrumented.String() {
		t.Error("instrumented chase output differs from the nil-obs output")
	}
}
