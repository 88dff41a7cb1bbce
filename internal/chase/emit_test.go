package chase

import (
	"testing"

	"muse/internal/instance"
	"muse/internal/mapping"
	"muse/internal/scenarios"
)

// TestReEmitAllocatesNothing runs each mapping's compiled program, then
// emits every assignment a second time into the same output: the nulls it mints hit
// the intern table, its SetIDs hit the occurrence table, and its tuples
// dedupe before any copy, so a re-emit allocates nothing and adds
// nothing. TPCH's default grouping (every SetID over all source values)
// and Fig. 1's chosen groupings cover both grouping paths; TPCH's
// widest mapping regrouped over its first source value makes lineitems
// of one order share their occurrences.
func TestReEmitAllocatesNothing(t *testing.T) {
	fig := scenarios.NewFigure1(false)
	tpch := scenarios.TPCH()
	set, err := tpch.Generate()
	if err != nil {
		t.Fatal(err)
	}
	src := tpch.NewInstance(0.01)
	widest := set.Mappings[0]
	for _, m := range set.Mappings {
		if len(m.For) > len(widest.For) {
			widest = m
		}
	}
	regrouped := widest.Interpretation(make([]int, len(widest.OrGroups)))
	for _, sk := range widest.SKs {
		regrouped = regrouped.WithSK(sk.SK.Fn, regrouped.Poss()[:1])
	}
	cases := []struct {
		src    *instance.Instance
		ms     []*mapping.Mapping
		shared bool // some nested occurrence must hold several tuples
	}{
		{fig.Source, []*mapping.Mapping{fig.M1, fig.M2, fig.M3}, false},
		{src, set.Mappings, false},
		{src, []*mapping.Mapping{regrouped}, true},
	}
	for _, c := range cases {
		for _, m := range c.ms {
			if m.Ambiguous() {
				m = m.Interpretation(make([]int, len(m.OrGroups)))
			}
			p, err := Compile(m, c.src.Cat)
			if err != nil {
				t.Fatal(err)
			}
			p.e.start(nil, c.src)
			plan := &p.plan
			out := instance.New(m.Tgt)
			var asgs []assignment
			if err := p.e.each(func(asg assignment) error {
				asgs = append(asgs, append(assignment(nil), asg...))
				plan.emit(asg, out)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(asgs) == 0 {
				t.Fatalf("mapping %s has no assignments", m.Name)
			}
			tuples, interned, sets := out.TupleCount(), out.Interned(), len(out.AllSets())
			if c.shared && !sharesOccurrences(out) {
				t.Fatalf("mapping %s: no nested occurrence holds more than one tuple", m.Name)
			}
			for i, asg := range asgs[:min(len(asgs), 20)] {
				if n := testing.AllocsPerRun(10, func() { plan.emit(asg, out) }); n != 0 {
					t.Errorf("mapping %s: re-emitting assignment %d allocates %.1f/op", m.Name, i, n)
				}
			}
			if out.TupleCount() != tuples || out.Interned() != interned || len(out.AllSets()) != sets {
				t.Errorf("mapping %s: re-emitting changed the output (%d→%d tuples, %d→%d interned, %d→%d occurrences)",
					m.Name, tuples, out.TupleCount(), interned, out.Interned(), sets, len(out.AllSets()))
			}
			p.finish()
		}
	}
}

// sharesOccurrences reports whether some nested occurrence of in holds
// more than one tuple.
func sharesOccurrences(in *instance.Instance) bool {
	for _, s := range in.AllSets() {
		if s.Type.Parent != nil && s.Len() > 1 {
			return true
		}
	}
	return false
}
