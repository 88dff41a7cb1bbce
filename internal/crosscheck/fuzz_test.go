package crosscheck

import (
	"math/rand"
	"testing"

	"muse/internal/instance"
	"muse/internal/query"
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

// FuzzRandomQuery drives the query differential from a fuzzed seed:
// a random scenario instance, a probe and a two-copy probe are drawn
// from the seed's rand stream, and the naive scan, the planner, Limit,
// and First must all agree on each probe.
func FuzzRandomQuery(f *testing.F) {
	for _, s := range []int64{1, 2, 3, 42, 7919} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		c, ok := RandomScenario(r, "fuzz")
		if !ok {
			return
		}
		// A general probe, then a two-copy one from the same stream.
		for _, draw := range []func(*rand.Rand, *instance.Instance) *query.Query{RandomQuery, copyProbe} {
			q := draw(r, c.Src)
			if q == nil {
				continue
			}
			if fail := checkOneQuery("fuzz", q, c.Src, nil, nil, r); fail != nil {
				fail.Seed = seed
				t.Errorf("%s", fail.String())
			}
		}
	})
}
