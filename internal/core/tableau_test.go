package core

import (
	"reflect"
	"slices"
	"testing"

	"muse/internal/deps"
	"muse/internal/mapping"
	"muse/internal/parser"
	"muse/internal/scenarios"
)

// sameAsReference requires the compiled tableau, as left by its last
// probe, to agree with the reference on the verdict, on every slot's
// class ID and synthetic constant, on the real-example query (bindings
// and inequalities over differ) and on the synthetic instance.
func sameAsReference(t *testing.T, what string, ref *refTableau, refOK bool, tb *tableau, ok bool, differ []mapping.Expr) {
	t.Helper()
	if ok != refOK {
		t.Fatalf("%s: compiled verdict %v, reference %v", what, ok, refOK)
	}
	if !ok {
		return
	}
	for s, x := range ref.allTerms() {
		if got, want := tb.classID(int32(s)), ref.classID[x]; got != want {
			t.Fatalf("%s: slot %s in class %s, reference %s", what, x, got, want)
		}
		if got, want := tb.classValue[s], ref.classValue[x]; got != want {
			t.Fatalf("%s: slot %s holds %v, reference %v", what, x, got, want)
		}
	}
	if got, want := tb.realQuery(differ), ref.realQuery(differ); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: real-example query differs:\n got %+v\nwant %+v", what, got, want)
	}
	if got, want := tb.synthetic().String(), ref.synthetic().String(); got != want {
		t.Fatalf("%s: synthetic example differs:\n got %s\nwant %s", what, got, want)
	}
}

// firstInterpretations returns a scenario's mappings, each ambiguous one
// at its first interpretation.
func firstInterpretations(t testing.TB, s *scenarios.Scenario) []*mapping.Mapping {
	t.Helper()
	set, err := s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var out []*mapping.Mapping
	for _, m := range set.Mappings {
		if m.Ambiguous() {
			m = m.Interpretation(make([]int, len(m.OrGroups)))
		}
		out = append(out, m)
	}
	return out
}

// TestTableauMatchesReference compares the compiled tableau with the
// map-based reference on every pattern the wizards build over the
// Sec. VI scenarios: each probe after each confirmed prefix of Muse-G's
// probe order, the multi-key protocol's patterns, and the FD-chased
// one-copy tableaux of Muse-D, the join variants and instance-only
// design.
func TestTableauMatchesReference(t *testing.T) {
	var patterns, constructible int
	for _, s := range scenarios.All() {
		set, err := s.Generate()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range firstInterpretations(t, s) {
			keyAttrs, rest := keyCovered(m, s.Src)
			poss := m.Poss()
			tb := compileTableau(m, s.Src, 2)
			// Prefixes of Muse-G's key-first order and of poss order.
			for _, order := range [][]mapping.Expr{append(keyAttrs, rest...), poss} {
				for k := range order {
					for _, probe := range order[k:] {
						ref, refOK := refProbeSetup(m, s.Src, poss, order[:k], nil, probe, nil)
						ok := probeSetup(tb, poss, order[:k], nil, probe, nil)
						sameAsReference(t, m.Name+" probe "+probe.String(), ref, refOK, tb, ok, []mapping.Expr{probe})
						patterns++
						if ok {
							constructible++
						}
					}
				}
			}
			variants, err := JoinVariants(m, s.Src)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range variants {
				sameOneCopy(t, v.Mapping, s.Src)
			}
			sameOneCopy(t, m, nil)
		}
		for _, m := range set.Mappings {
			sameOneCopy(t, m, s.Src)
		}
	}
	t.Logf("%d probe patterns, %d constructible", patterns, constructible)

	// No Sec. VI source is multi-keyed; Mondial with a second key on
	// Country, Province and City is (as in the scenario_matches golden).
	s := scenarios.Mondial()
	ms := firstInterpretations(t, s)
	for _, rel := range []string{"Country", "Province", "City"} {
		s.Src.MustAddKey(rel, "name")
	}
	multi := 0
	for _, m := range ms {
		keyAttrs, rest := keyCovered(m, s.Src)
		if !multiKeyed(m, s.Src) || len(keyAttrs) == 0 {
			continue
		}
		multi++
		tb := compileTableau(m, s.Src, 2)
		ref, refOK := buildProbeTableau(m, s.Src, nil, rest, keyAttrs)
		if refOK {
			ref.finalize()
		}
		sameAsReference(t, m.Name+" key grouping", ref, refOK, tb, tb.probe(nil, rest, keyAttrs), keyAttrs)
		for _, probe := range rest {
			ref, refOK := refProbeSetup(m, s.Src, rest, nil, nil, probe, keyAttrs)
			ok := probeSetup(tb, rest, nil, nil, probe, keyAttrs)
			sameAsReference(t, m.Name+" multi-key probe "+probe.String(), ref, refOK, tb, ok, []mapping.Expr{probe})
		}
	}
	if multi == 0 {
		t.Fatal("no multi-keyed mapping on Mondial with two keys")
	}

	// A self-join under the FD chain a -> c -> b: here the trial merges
	// reach some classes in another order than the naming pass, and
	// naming the trial partition itself would rename v0.b's class.
	doc, err := parser.Parse(selfJoinDoc)
	if err != nil {
		t.Fatal(err)
	}
	m, src := doc.Mappings[0], doc.Deps["S"]
	poss := m.Poss()
	tb := compileTableau(m, src, 2)
	for k := range poss {
		for _, probe := range poss[k:] {
			ref, refOK := refProbeSetup(m, src, poss, poss[:k], nil, probe, nil)
			ok := probeSetup(tb, poss, poss[:k], nil, probe, nil)
			sameAsReference(t, "self-join probe "+probe.String(), ref, refOK, tb, ok, []mapping.Expr{probe})
		}
	}
}

const selfJoinDoc = `
schema S { R: set of record { a: int, b: int, c: int, d: int } }
schema T { U: set of record { x: int, G: set of record { y: int } } }
fd S.R: c -> b
fd S.R: a -> c
mapping m {
  for v0 in S.R, v1 in S.R
  satisfy v1.c = v0.c
  exists u in T.U, g in u.G
  where v0.a = u.x and v1.b = g.y and u.G = SKG(v0.a)
}
`

// sameOneCopy compares the one-copy tableau of m, closed under src's
// FDs, with the reference.
func sameOneCopy(t *testing.T, m *mapping.Mapping, src *deps.Set) {
	t.Helper()
	ref := newRefTableau(m, 1)
	ref.chaseFDs(src)
	ref.finalize()
	sameAsReference(t, m.Name+" one copy", ref, true, compileTableau(m, src, 1), true, nil)
}

// TestTableauTrialAllocatesNothing guards the trial loop on TPCH's
// widest mapping: a trial merge, its FD closure, the mustDiffer test
// and the undo allocate nothing once the trail has grown.
func TestTableauTrialAllocatesNothing(t *testing.T) {
	s := scenarios.TPCH()
	var m *mapping.Mapping
	for _, c := range firstInterpretations(t, s) {
		if m == nil || len(c.Poss()) > len(m.Poss()) {
			m = c
		}
	}
	// The probe is a non-key atom of the first variable with a key. The
	// other key attributes are confirmed, so agreeing on the last one
	// forces the probe to agree: that trial fails and is undone.
	var confirmed, probe []mapping.Expr
	var last, other mapping.Expr
	info := m.MustAnalyze()
	for _, v := range info.SrcOrder {
		st := info.SrcVars[v]
		keys := s.Src.CandidateKeys(st)
		if len(keys) == 0 || len(keys[0].Attrs) == len(st.Atoms) {
			continue
		}
		for _, a := range keys[0].Attrs {
			confirmed = append(confirmed, mapping.E(v, a))
		}
		confirmed, last = confirmed[:len(confirmed)-1], confirmed[len(confirmed)-1]
		for _, a := range st.Atoms {
			if !slices.Contains(keys[0].Attrs, a) {
				probe = append(probe, mapping.E(v, a))
			}
		}
		probe, other = probe[:1], probe[len(probe)-1]
		break
	}
	tb := compileTableau(m, s.Src, 2)
	if probe == nil || len(tb.rules) == 0 || !tb.probe(confirmed, nil, probe) {
		t.Fatalf("%s: no keyed variable, no FD rules, or probe %v unconstructible", m.Name, probe)
	}
	if tb.try(tb.slot[last]) {
		t.Fatalf("%s: agreeing on %v and %s kept %s apart", m.Name, confirmed, last, probe[0])
	}
	allocs := testing.AllocsPerRun(100, func() {
		tb.try(tb.slot[last])
		mark := len(tb.trail)
		if tb.try(tb.slot[other]) {
			tb.undo(mark)
		}
	})
	if allocs != 0 {
		t.Errorf("%s: a trial allocates %.1f times; want 0", m.Name, allocs)
	}
}

// dialogProbes is the probe sequence of one grouping-function design:
// the confirmed attributes and the probe of every question posed.
type dialogProbes struct {
	m      *mapping.Mapping
	probes [][]mapping.Expr // confirmed..., probe
}

// recordProbes answers like a G1 designer (every attribute of poss
// belongs in the grouping) and records each probe's pattern.
type recordProbes struct{ d *dialogProbes }

func (r recordProbes) ChooseScenario(q *GroupingQuestion) (int, error) {
	r.d.probes = append(r.d.probes, append(append([]mapping.Expr{}, q.Confirmed...), q.Probe))
	return 1, nil
}

// BenchmarkProbeTableau builds the probe tableaux of a G1 dialog over
// every mapping of each Sec. VI scenario: one compile per grouping
// function, then one probe setup per question the dialog posed.
func BenchmarkProbeTableau(b *testing.B) {
	for _, s := range scenarios.All() {
		var dialogs []*dialogProbes
		for _, m := range firstInterpretations(b, s) {
			w := NewGroupingWizard(s.Src, nil)
			for _, fn := range w.skOrder(m) {
				d := &dialogProbes{m: m}
				if _, err := w.DesignSK(m, fn, recordProbes{d}); err != nil {
					b.Fatal(err)
				}
				dialogs = append(dialogs, d)
			}
		}
		b.Run(s.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, d := range dialogs {
					tb := compileTableau(d.m, s.Src, 2)
					poss := d.m.Poss()
					for _, p := range d.probes {
						if !probeSetup(tb, poss, p[:len(p)-1], nil, p[len(p)-1], nil) {
							b.Fatalf("%s: posed probe %s is unconstructible", d.m.Name, p[len(p)-1])
						}
					}
				}
			}
		})
	}
}
