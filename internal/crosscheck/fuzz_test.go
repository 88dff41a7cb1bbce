package crosscheck

import (
	"math/rand"
	"testing"
)

// FuzzMutatedChase drives the chase differential from a fuzzed seed:
// the figure cases are mutated with the seed's rand stream, a random
// scenario is drawn from the same stream, and the chase and the naive
// chase must agree on every one. Any interesting seed the
// fuzzer keeps is a whole family of adversarial instances.
func FuzzMutatedChase(f *testing.F) {
	for _, s := range []int64{1, 2, 3, 42, 7919} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		var cases []*Case
		for _, c := range FigureCases() {
			cases = append(cases, &Case{Name: c.Name + "-mut", Src: MutateInstance(r, c.Src), Ms: c.Ms})
		}
		if c, ok := RandomScenario(r, "fuzz"); ok {
			cases = append(cases, c)
		}
		for _, c := range cases {
			if fail := checkChaseCase(c); fail != nil {
				fail.Seed = seed
				t.Errorf("%s", fail.String())
			}
		}
	})
}

// FuzzRetrieval drives the decide leg from a fuzzed seed: a random
// scenario is drawn from the seed's rand stream, and every retrieval of
// one probe pattern per mapping and instance, and of each ambiguous
// mapping's Muse-D example, must reach the brute-force scan's verdict.
func FuzzRetrieval(f *testing.F) {
	for _, s := range []int64{1, 2, 3, 42, 7919} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		c, ok := RandomScenario(r, "fuzz")
		if !ok {
			return
		}
		l := &decideLeg{seed: seed, queries: 1}
		l.scenario(r, c, true)
		for _, fail := range l.fails {
			t.Errorf("%s", fail.String())
		}
	})
}
