package core

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"muse/internal/instance"
	"muse/internal/mapping"
	"muse/internal/obs"
	"muse/internal/query"
	"muse/internal/scenarios"
)

// This file holds the engine-equivalence acceptance test of the shared
// index store + cost-based planner: over every scenario suite, the
// probe queries the wizards actually issue (each mapping's canonical
// tableau, with and without inequalities) must return exactly the
// matches of the naive reference evaluation (given atom order, full
// scans, check-all inequalities — the pre-planner semantics), the
// planned evaluation must be deterministic run to run, and its ordered
// matches must hash to the recorded golden (so a rewrite of the
// evaluator cannot change which real example a probe finds first).

// scenarioQueries builds the retrieval queries of a scenario's
// mappings: the plain assignment query plus, where the mapping has
// grouping candidates, the two-copy probe query on the first one and a
// probe with the first candidate confirmed. Multi-keyed sources add
// the key-grouping question and the probes whose key attributes always
// differ across copies (multiKeyQueries).
func scenarioQueries(t *testing.T, s *scenarios.Scenario) []*query.Query {
	t.Helper()
	set, err := s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	w := &GroupingWizard{Env: Env{SrcDeps: s.Src}}
	var qs []*query.Query
	for _, m := range set.Mappings {
		if m.Ambiguous() {
			m = m.Interpretation(make([]int, len(m.OrGroups)))
		}
		qs = append(qs, compileTableau(m, nil, 1).realQuery(nil))
		poss := m.Poss()
		ptb := compileTableau(m, s.Src, 2)
		if len(poss) > 0 {
			probe := poss[0]
			if ptb.probe(nil, poss[1:], []mapping.Expr{probe}) {
				qs = append(qs, ptb.realQuery(ptb.differPairs([]mapping.Expr{probe})))
			}
		}
		if len(poss) > 1 {
			if probeSetup(ptb, poss, poss[:1], nil, poss[1], nil) {
				qs = append(qs, ptb.realQuery(ptb.differPairs([]mapping.Expr{poss[1]})))
			}
		}
		qs = append(qs, multiKeyQueries(w, m)...)
	}
	return qs
}

// multiKeyQueries builds the queries of the multi-key protocol (Sec.
// III-B) when m's source is multi-keyed: the key-grouping question
// (every key attribute differs across copies) and, for each non-key
// candidate, the probe whose key attributes always differ.
func multiKeyQueries(w *GroupingWizard, m *mapping.Mapping) []*query.Query {
	keyAttrs, rest := keyCovered(m, w.SrcDeps)
	if !multiKeyed(m, w.SrcDeps) || len(keyAttrs) == 0 {
		return nil
	}
	var qs []*query.Query
	tb := compileTableau(m, w.SrcDeps, 2)
	if tb.probe(nil, rest, keyAttrs) {
		qs = append(qs, tb.realQuery(tb.differPairs(keyAttrs)))
	}
	for _, probe := range rest {
		if probeSetup(tb, rest, nil, nil, probe, keyAttrs) {
			qs = append(qs, tb.realQuery(tb.differPairs([]mapping.Expr{probe})))
		}
	}
	return qs
}

func canonical(ms []query.Match) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		s := ""
		for _, t := range m.Tuples {
			s += t.Key() + "|"
		}
		out[i] = s
	}
	sort.Strings(out)
	return out
}

func ordered(ms []query.Match) string {
	s := ""
	for _, m := range ms {
		for _, t := range m.Tuples {
			s += t.Key() + "|"
		}
		s += "\n"
	}
	return s
}

// matchDigest hashes the ordered matches, tuples and value bindings
// (variables sorted), into one golden line.
func matchDigest(ms []query.Match) string {
	h := sha256.New()
	for _, m := range ms {
		for _, t := range m.Tuples {
			fmt.Fprintf(h, "%s|", t.Key())
		}
		vars := make([]string, 0, len(m.Values))
		for v := range m.Values {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		for _, v := range vars {
			var k string
			if val := m.Values[v]; val != nil {
				k = val.Key()
			}
			fmt.Fprintf(h, "%s=%s|", v, k)
		}
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%d %x", len(ms), h.Sum(nil))
}

// checkPlannedAgainstNaive evaluates each query naively and planned,
// requires the same match sets and a repeatable planned order, and
// returns one golden line per query: the digest of its ordered planned
// matches.
func checkPlannedAgainstNaive(t *testing.T, name string, in *instance.Instance, qs []*query.Query) []string {
	t.Helper()
	store := query.NewIndexStore(in)
	var digests []string
	for qi, q := range qs {
		naive, err := q.EvalNaive(in)
		if err != nil {
			t.Fatalf("query %d naive: %v", qi, err)
		}
		planned, err := q.Eval(in, query.Options{Store: store})
		if err != nil {
			t.Fatalf("query %d planned: %v", qi, err)
		}
		got, want := canonical(planned), canonical(naive)
		if len(got) != len(want) {
			t.Fatalf("query %d: planned %d matches, naive %d", qi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %d: match sets differ at %d", qi, i)
			}
		}
		again, err := q.Eval(in, query.Options{Store: store})
		if err != nil {
			t.Fatal(err)
		}
		if ordered(again) != ordered(planned) {
			t.Fatalf("query %d: planned evaluation is nondeterministic", qi)
		}
		digests = append(digests, fmt.Sprintf("%s q%d %s", name, qi, matchDigest(planned)))
	}
	return digests
}

// TestPlannedEvalMatchesNaiveOnScenarios also pins each suite's lines
// of testdata/scenario_matches.golden; record the whole file with
// UPDATE_GOLDEN=1 on an unfiltered run.
func TestPlannedEvalMatchesNaiveOnScenarios(t *testing.T) {
	golden := filepath.Join("testdata", "scenario_matches.golden")
	update := os.Getenv("UPDATE_GOLDEN") != ""
	want := make(map[string][]string)
	if !update {
		data, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%v (run with UPDATE_GOLDEN=1 to record)", err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			name, _, _ := strings.Cut(line, " ")
			want[name] = append(want[name], line)
		}
	}
	var all []string
	check := func(t *testing.T, name string, in *instance.Instance, qs []*query.Query) {
		got := checkPlannedAgainstNaive(t, name, in, qs)
		all = append(all, got...)
		if !update && strings.Join(got, "\n") != strings.Join(want[name], "\n") {
			t.Errorf("ordered planned matches drifted from %s.\n--- got ---\n%s\n--- want ---\n%s",
				golden, strings.Join(got, "\n"), strings.Join(want[name], "\n"))
		}
	}
	for _, s := range scenarios.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			scale := 0.02
			if s.Name == "TPCH" {
				// TPCH's widest join makes the naive reference quadratic;
				// a smaller instance keeps the -race run fast.
				scale = 0.005
			}
			check(t, s.Name, s.NewInstance(scale), scenarioQueries(t, s))
		})
	}
	// No Sec. VI source is multi-keyed, so the multi-key protocol's
	// queries come from Mondial with a second key (name) on Country,
	// Province and City, added after the mappings are generated.
	t.Run("MondialTwoKeys", func(t *testing.T) {
		s := scenarios.Mondial()
		set, err := s.Generate()
		if err != nil {
			t.Fatal(err)
		}
		for _, rel := range []string{"Country", "Province", "City"} {
			s.Src.MustAddKey(rel, "name")
		}
		w := &GroupingWizard{Env: Env{SrcDeps: s.Src}}
		var qs []*query.Query
		for _, m := range set.Mappings {
			if m.Ambiguous() {
				m = m.Interpretation(make([]int, len(m.OrGroups)))
			}
			qs = append(qs, multiKeyQueries(w, m)...)
		}
		if len(qs) == 0 {
			t.Fatal("no multi-key queries on Mondial with two keys")
		}
		check(t, "MondialTwoKeys", s.NewInstance(0.02), qs)
	})
	if update && !t.Failed() {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(strings.Join(all, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSessionSharesStore checks the build-once property across a whole
// session: designing every grouping function of a scenario mapping
// twice over one wizard must not build any index the first pass did
// not already build. The mapping is the first whose retrievals use an
// index at all; a mapping whose probes are all refuted builds none.
func TestSessionSharesStore(t *testing.T) {
	s, err := scenarios.ByName("Mondial")
	if err != nil {
		t.Fatal(err)
	}
	set, err := s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	in := s.NewInstance(0.02)
	d := alwaysAnswer(1)
	for _, m := range set.Mappings {
		if m.Ambiguous() || len(m.SKs) == 0 {
			continue
		}
		w := NewGroupingWizard(s.Src, in)
		w.Obs = obs.New()
		if _, err := w.DesignMapping(m, d); err != nil {
			t.Fatal(err)
		}
		if w.Store == nil {
			t.Fatal("wizard retrieved examples without creating a store")
		}
		first := w.Obs.Reg.Get(obs.MIndexBuilds)
		if first == 0 {
			continue
		}
		if _, err := w.DesignMapping(m, d); err != nil {
			t.Fatal(err)
		}
		if again := w.Obs.Reg.Get(obs.MIndexBuilds); again != first {
			t.Errorf("%s: second pass built %d extra indexes; want full reuse", m.Name, again-first)
		}
		return
	}
	t.Fatal("no unambiguous Mondial mapping retrieves examples through an index")
}

// alwaysAnswer is a designer that picks the same scenario every time.
type alwaysAnswer int

func (a alwaysAnswer) ChooseScenario(q *GroupingQuestion) (int, error) { return int(a), nil }
