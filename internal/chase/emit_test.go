package chase

import (
	"testing"

	"muse/internal/instance"
	"muse/internal/mapping"
	"muse/internal/scenarios"
)

// TestReEmitAllocatesNothing chases each mapping, then emits every
// assignment a second time into the same output: the nulls and SetIDs
// it mints hit the intern table, its SetIDs find their occurrences, and
// its tuples dedupe before any copy, so a re-emit allocates nothing and
// adds nothing. TPCH's default grouping (every SetID over all source
// values) and Fig. 1's chosen groupings cover both grouping paths.
func TestReEmitAllocatesNothing(t *testing.T) {
	fig := scenarios.NewFigure1(false)
	tpch := scenarios.TPCH()
	set, err := tpch.Generate()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		src *instance.Instance
		ms  []*mapping.Mapping
	}{
		{fig.Source, []*mapping.Mapping{fig.M1, fig.M2, fig.M3}},
		{tpch.NewInstance(0.01), set.Mappings},
	}
	for _, c := range cases {
		for _, m := range c.ms {
			if m.Ambiguous() {
				m = m.Interpretation(make([]int, len(m.OrGroups)))
			}
			info, err := m.Analyze()
			if err != nil {
				t.Fatal(err)
			}
			e := newEvaluator(c.src, m, info)
			plan, err := planTarget(m, info, e)
			if err != nil {
				t.Fatal(err)
			}
			out := instance.New(m.Tgt)
			var asgs []assignment
			if err := e.each(func(asg assignment) error {
				asgs = append(asgs, append(assignment(nil), asg...))
				return plan.emit(asg, out)
			}); err != nil {
				t.Fatal(err)
			}
			if len(asgs) == 0 {
				t.Fatalf("mapping %s has no assignments", m.Name)
			}
			tuples, interned := out.TupleCount(), out.Interned()
			for i, asg := range asgs[:min(len(asgs), 20)] {
				if n := testing.AllocsPerRun(10, func() {
					if err := plan.emit(asg, out); err != nil {
						t.Fatal(err)
					}
				}); n != 0 {
					t.Errorf("mapping %s: re-emitting assignment %d allocates %.1f/op", m.Name, i, n)
				}
			}
			if out.TupleCount() != tuples || out.Interned() != interned {
				t.Errorf("mapping %s: re-emitting changed the output (%d→%d tuples, %d→%d interned)",
					m.Name, tuples, out.TupleCount(), interned, out.Interned())
			}
		}
	}
}
