package crosscheck

import (
	"math/rand"
	"testing"

	"muse/internal/chase"
	"muse/internal/homo"
	"muse/internal/scenarios"
)

// testConfig keeps the permanent in-tree run small; `make crosscheck`
// runs the full driver with bigger sizes.
func testConfig() Config {
	return Config{Seed: 1, Cases: 3, Queries: 6, Scale: 0.02}
}

// TestNaiveChaseMatchesOnFigures pins the reference evaluator itself:
// on the hand-built figure scenarios the naive chase must be
// isomorphic to the optimized chase and must itself be a
// solution witness.
func TestNaiveChaseMatchesOnFigures(t *testing.T) {
	for _, c := range BaseCases(0.02)[:6] { // the six figure cases
		c := c
		t.Run(c.Name, func(t *testing.T) {
			out, err := chase.Chase(c.Src, c.Ms...)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NaiveChase(c.Src, c.Ms...)
			if err != nil {
				t.Fatal(err)
			}
			if !homo.Isomorphic(out, ref) {
				t.Fatalf("naive and optimized chase are not isomorphic on %s:\nchase:\n%s\nnaive:\n%s", c.Name, out, ref)
			}
			ok, err := chase.IsSolution(c.Src, ref, c.Ms...)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("naive chase of %s is not a solution", c.Name)
			}
		})
	}
}

// TestChaseOracle runs the full chase differential (chase vs naive,
// builtin + mutated + random scenarios) at the test scale.
func TestChaseOracle(t *testing.T) {
	for _, f := range CheckChase(testConfig()) {
		t.Errorf("%s", f)
	}
}

// TestQueryOracle runs the planner-vs-scan differential probes.
func TestQueryOracle(t *testing.T) {
	for _, f := range CheckQuery(testConfig()) {
		t.Errorf("%s", f)
	}
}

// TestWizardOracle runs the Stepper-vs-Session.Run differential with
// invalid-answer injection.
func TestWizardOracle(t *testing.T) {
	cfg := testConfig()
	cfg.Cases = 2
	for _, f := range CheckWizard(cfg) {
		t.Errorf("%s", f)
	}
}

// TestResumeOracle runs the kill/replay differential (every kill index
// on the first seed) plus the WAL crash, torn-tail, and corruption
// fault injections.
func TestResumeOracle(t *testing.T) {
	cfg := testConfig()
	cfg.Cases = 2
	for _, f := range CheckResume(cfg) {
		t.Errorf("%s", f)
	}
}

// TestServerOracle runs the wire-vs-in-process differential and the
// fault injections.
func TestServerOracle(t *testing.T) {
	cfg := testConfig()
	cfg.Cases = 1
	for _, f := range CheckServer(cfg) {
		t.Errorf("%s", f)
	}
}

// TestMutatorDeterministic pins the mutator's seeding contract: the
// same seed must produce the same instance, and different seeds must
// (in practice) differ.
func TestMutatorDeterministic(t *testing.T) {
	base := scenarios.NewFigure1(true).Source
	a := MutateInstance(rand.New(rand.NewSource(7)), base)
	b := MutateInstance(rand.New(rand.NewSource(7)), base)
	if a.String() != b.String() {
		t.Fatal("same seed produced different mutations")
	}
	c := MutateInstance(rand.New(rand.NewSource(8)), base)
	if a.String() == c.String() {
		t.Fatal("different seeds produced identical mutations (suspicious)")
	}
}

// TestRandomScenarioDeterministic pins the scenario generator's
// seeding contract the same way.
func TestRandomScenarioDeterministic(t *testing.T) {
	gen := func(seed int64) string {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			if c, ok := RandomScenario(r, "x"); ok {
				return reproCase(c)
			}
		}
		t.Fatal("no scenario generated in 50 draws")
		return ""
	}
	if gen(11) != gen(11) {
		t.Fatal("same seed produced different scenarios")
	}
}
