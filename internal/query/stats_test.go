package query

import (
	"testing"

	"muse/internal/scenarios"
)

// TestStatsMatchRenderedKeys holds the store's counts to the
// rendered-key definition they replaced, on every Sec. VI scenario at
// scale 0.1: a top-level set's Distinct[i] is the number of distinct
// Value.Key strings among the non-nil values of its atom i, and an
// attribute pair is unique when every tuple sets both and no two tuples
// render the same pair of keys.
func TestStatsMatchRenderedKeys(t *testing.T) {
	var verdicts [2]int // pairs judged not unique, unique
	for _, sc := range scenarios.All() {
		in := sc.NewInstance(0.1)
		store := NewIndexStore(in)
		for _, st := range in.Cat.Sets {
			if st.Parent != nil {
				continue
			}
			tuples := in.Top(st).View()
			stats := store.Stats(st)
			for i, a := range st.Atoms {
				keys := make(map[string]bool)
				for _, tp := range tuples {
					if v := tp.Get(a); v != nil {
						keys[v.Key()] = true
					}
				}
				if stats.Distinct[i] != len(keys) {
					t.Errorf("%s %s.%s: Distinct = %d, want %d", sc.Name, st.Path, a, stats.Distinct[i], len(keys))
				}
			}
			for i, a := range st.Atoms {
				for _, b := range st.Atoms[i+1:] {
					want := true
					keys := make(map[string]bool, len(tuples))
					for _, tp := range tuples {
						va, vb := tp.Get(a), tp.Get(b)
						if va == nil || vb == nil {
							want = false
							break
						}
						// Keys escape the separator bytes, so the pair
						// key is injective.
						k := va.Key() + "\x05" + vb.Key()
						if keys[k] {
							want = false
							break
						}
						keys[k] = true
					}
					pair := []string{a, b}
					if b < a {
						pair = []string{b, a}
					}
					got := store.unique(st, pair)
					if got != want {
						t.Errorf("%s %s: unique(%v) = %v, want %v", sc.Name, st.Path, pair, got, want)
					}
					if got {
						verdicts[1]++
					} else {
						verdicts[0]++
					}
				}
			}
		}
	}
	if verdicts[0] == 0 || verdicts[1] == 0 {
		t.Errorf("verdicts %v: the scenarios must hold both unique and repeated pairs", verdicts)
	}
	t.Logf("%d pairs unique, %d not", verdicts[1], verdicts[0])
}
