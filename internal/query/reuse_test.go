package query

import (
	"math/rand"
	"slices"
	"testing"

	"muse/internal/instance"
	"muse/internal/nr"
	"muse/internal/scenarios"
)

// TestUniqueReuseUnset pins verdict reuse at an unset slot. A unique
// sublist decides a list only when every tuple sets the list's other
// atoms; and a list that is not unique only because a tuple leaves a
// slot unset says nothing of its sublists, whether a statistic decides
// them or a pass.
func TestUniqueReuseUnset(t *testing.T) {
	for _, c := range []struct {
		rows  [][3]string
		asks  [][]string
		wants []bool
	}{
		{
			[][3]string{{"1", "A", "X"}, {"2", "A", "Y"}, {"3", "B", ""}},
			[][]string{{"cid"}, {"cid", "location"}},
			[]bool{true, false},
		},
		{
			[][3]string{{"1", "A", "X"}, {"1", "B", ""}},
			[][]string{{"cname", "location"}, {"cname"}},
			[]bool{false, true},
		},
		{
			[][3]string{{"1", "A", "X"}, {"1", "B", "Y"}, {"2", "A", ""}, {"2", "B", "X"}},
			[][]string{{"cid", "cname", "location"}, {"cid", "cname"}},
			[]bool{false, true},
		},
	} {
		in := companies(c.rows...)
		st := in.Cat.ByPath(nr.ParsePath("Companies"))
		store := NewIndexStore(in)
		for i, attrs := range c.asks {
			if got := store.unique(st, attrs); got != c.wants[i] {
				t.Errorf("rows %v, after %v: unique(%v) = %v, want %v", c.rows, c.asks[:i], attrs, got, c.wants[i])
			}
		}
	}
}

// TestUniqueReuseMatchesFullPass asks every list of one to three atoms
// of every top-level set of the four Sec. VI scenarios at scale 0.1, and
// of copies with a seeded share of slots unset, on one store per
// instance and order: ascending by size, so that unique sublists decide
// lists, and descending, so that repeated superlists do. Every verdict
// must equal a full uniqueness pass over the list, and in each order
// reuse must spare some passes.
func TestUniqueReuseMatchesFullPass(t *testing.T) {
	var candidates, passes [2]int // lists only a pass or a verdict decides; passes run; per order
	for k, sc := range scenarios.All() {
		real := sc.NewInstance(0.1)
		for _, in := range []*instance.Instance{real, withUnset(real, rand.New(rand.NewSource(int64(k))))} {
			lists := atomLists(in.Cat, 3)
			for order := range 2 {
				if order == 1 {
					slices.Reverse(lists)
				}
				store := NewIndexStore(in)
				for _, l := range lists {
					set := in.Top(l.st)
					if got, want := store.unique(l.st, l.attrs), instance.Unique(set.View(), l.slots); got != want {
						t.Errorf("%s %s, order %d: unique(%v) = %v, a full pass says %v", sc.Name, l.st.Path, order, l.attrs, got, want)
					}
					stats := store.Stats(l.st)
					if len(l.slots) > 1 && !slices.ContainsFunc(l.slots, func(i int) bool {
						return stats.Set[i] < stats.Card || stats.Distinct[i] == stats.Card
					}) {
						candidates[order]++
					}
				}
				passes[order] += store.Passes().Unique
			}
		}
	}
	for order := range 2 {
		if passes[order] >= candidates[order] {
			t.Errorf("order %d: %d uniqueness passes for %d lists the statistics leave open; reuse spared none", order, passes[order], candidates[order])
		}
	}
	t.Logf("ascending: %d passes for %d open lists; descending: %d for %d", passes[0], candidates[0], passes[1], candidates[1])
}

// atomList is one attribute list of a top-level set, in sorted order,
// and its slots.
type atomList struct {
	st    *nr.SetType
	attrs []string
	slots []int
}

// atomLists returns every list of one to max atoms of every top-level
// set of cat, shorter lists first.
func atomLists(cat *nr.Catalog, max int) []atomList {
	var out []atomList
	for size := 1; size <= max; size++ {
		for _, st := range cat.TopLevel() {
			var pick func(from int, slots []int)
			pick = func(from int, slots []int) {
				if len(slots) == size {
					var attrs []string
					for _, i := range slots {
						attrs = append(attrs, st.Atoms[i])
					}
					slices.Sort(attrs)
					out = append(out, atomList{st, attrs, slices.Clone(slots)})
					return
				}
				for i := from; i < len(st.Atoms); i++ {
					pick(i+1, append(slots, i))
				}
			}
			pick(0, nil)
		}
	}
	return out
}

// withUnset copies the top-level sets of in, leaving each of about half
// of every set's atoms unset in about one tuple in twenty.
func withUnset(in *instance.Instance, r *rand.Rand) *instance.Instance {
	out := instance.New(in.Cat)
	for _, st := range in.Cat.TopLevel() {
		var holed []int
		for i := range st.Atoms {
			if r.Intn(2) == 0 {
				holed = append(holed, i)
			}
		}
		for _, t := range in.Top(st).View() {
			c := t.Clone()
			for _, i := range holed {
				if r.Intn(20) == 0 {
					c.PutSlot(i, nil)
				}
			}
			out.InsertTop(st, c)
		}
	}
	return out
}
