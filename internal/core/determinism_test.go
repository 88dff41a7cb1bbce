package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"muse/internal/instance"
	"muse/internal/mapping"
	"muse/internal/obs"
	"muse/internal/scenarios"
)

// This file holds the acceptance test of the table scans: over every
// scenario suite, the retrievals the wizards actually run (Muse-G's
// probes, the multi-key protocol's, and Muse-D's) must find exactly the
// witness of the brute-force reference (brute_test.go), the scan must
// be deterministic run to run, and the witnesses must hash to the
// recorded golden (so a rewrite of a scan cannot change which real
// example a question shows).

// retrievalCase is one retrieval on its own tableau: a Muse-G probe
// (two copies) or Muse-D's (one copy, prepared by the wizard).
type retrievalCase struct {
	tb     *tableau
	neq    []int32
	choice *choiceRetrieval
}

// scenarioRetrievals builds the retrievals of a scenario's mappings:
// where a mapping has grouping candidates, the probe on the first one
// and a probe with the first candidate confirmed, Muse-D's retrieval of
// each ambiguous mapping, and, for multi-keyed sources, the key-grouping
// question and the probes whose key attributes always differ across
// copies (multiKeyRetrievals).
func scenarioRetrievals(t *testing.T, s *scenarios.Scenario) []retrievalCase {
	t.Helper()
	set, err := s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	w := &GroupingWizard{Env: Env{SrcDeps: s.Src}}
	d := &DisambiguationWizard{Env: Env{SrcDeps: s.Src}}
	var rs []retrievalCase
	for _, m := range set.Mappings {
		if m.Ambiguous() {
			r, err := d.choiceRetrieval(m)
			if err != nil {
				t.Fatal(err)
			}
			rs = append(rs, retrievalCase{tb: r.tb, neq: r.neq, choice: r})
			m = m.Interpretation(make([]int, len(m.OrGroups)))
		}
		poss := m.Poss()
		if len(poss) > 0 {
			tb := compileTableau(m, s.Src, 2)
			if probe := poss[0]; tb.probe(nil, poss[1:], []mapping.Expr{probe}) {
				rs = append(rs, retrievalCase{tb: tb, neq: slices.Clone(tb.differPairs([]mapping.Expr{probe}))})
			}
		}
		if len(poss) > 1 {
			tb := compileTableau(m, s.Src, 2)
			if probeSetup(tb, poss, poss[:1], nil, poss[1], nil) {
				rs = append(rs, retrievalCase{tb: tb, neq: slices.Clone(tb.differPairs([]mapping.Expr{poss[1]}))})
			}
		}
		rs = append(rs, multiKeyRetrievals(w, m)...)
	}
	return rs
}

// multiKeyRetrievals builds the retrievals of the multi-key protocol
// (Sec. III-B) when m's source is multi-keyed: the key-grouping question
// (every key attribute differs across copies) and, for each non-key
// candidate, the probe whose key attributes always differ.
func multiKeyRetrievals(w *GroupingWizard, m *mapping.Mapping) []retrievalCase {
	keyAttrs, rest := keyCovered(m, w.SrcDeps)
	if !multiKeyed(m, w.SrcDeps) || len(keyAttrs) == 0 {
		return nil
	}
	var rs []retrievalCase
	if tb := compileTableau(m, w.SrcDeps, 2); tb.probe(nil, rest, keyAttrs) {
		rs = append(rs, retrievalCase{tb: tb, neq: slices.Clone(tb.differPairs(keyAttrs))})
	}
	for _, probe := range rest {
		if tb := compileTableau(m, w.SrcDeps, 2); probeSetup(tb, rest, nil, nil, probe, keyAttrs) {
			rs = append(rs, retrievalCase{tb: tb, neq: slices.Clone(tb.differPairs([]mapping.Expr{probe}))})
		}
	}
	return rs
}

// scanCase scans the retrieval on in as the wizard does, refutation
// aside, and returns its witness.
func scanCase(t *testing.T, env *Env, c retrievalCase) [][]*instance.Tuple {
	t.Helper()
	if c.choice != nil {
		c.choice.env = env
		found, _, err := c.choice.scan(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !found {
			return nil
		}
		return [][]*instance.Tuple{c.choice.row}
	}
	r := newProbeRetrieval(env, c.tb, c.neq)
	found, _, err := r.scan(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		return nil
	}
	return r.rows()
}

// witnessDigest hashes a witness's tuples, row by row, into one golden
// field.
func witnessDigest(rows [][]*instance.Tuple) string {
	if rows == nil {
		return "none"
	}
	h := sha256.New()
	for _, row := range rows {
		for _, tp := range row {
			fmt.Fprintf(h, "%s|", tp.Key())
		}
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// checkAgainstBrute scans each retrieval, requires the brute-force
// reference's witness and the same witness on a second scan, and
// returns one golden line per retrieval: the digest of its witness.
func checkAgainstBrute(t *testing.T, name string, in *instance.Instance, rs []retrievalCase) []string {
	t.Helper()
	env := &Env{Real: in}
	rows := make(map[*mapping.Mapping][][]*instance.Tuple)
	var digests []string
	for i, c := range rs {
		got := scanCase(t, env, c)
		if rows[c.tb.m] == nil {
			rows[c.tb.m] = bruteRows(c.tb.m, in)
		}
		if want := bruteWitness(c.tb, c.neq, rows[c.tb.m]); !sameRows(got, want) {
			t.Fatalf("retrieval %d on %s: witness %v, the brute-force reference %v", i, c.tb.m.Name, got, want)
		}
		if again := scanCase(t, env, c); !sameRows(again, got) {
			t.Fatalf("retrieval %d on %s: the scan is nondeterministic", i, c.tb.m.Name)
		}
		digests = append(digests, fmt.Sprintf("%s q%d %s", name, i, witnessDigest(got)))
	}
	return digests
}

// TestWitnessMatchesBruteForceOnScenarios also pins each suite's lines
// of testdata/scenario_matches.golden; record the whole file with
// UPDATE_GOLDEN=1 on an unfiltered run.
func TestWitnessMatchesBruteForceOnScenarios(t *testing.T) {
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
	check := func(t *testing.T, name string, in *instance.Instance, rs []retrievalCase) {
		got := checkAgainstBrute(t, name, in, rs)
		all = append(all, got...)
		if !update && strings.Join(got, "\n") != strings.Join(want[name], "\n") {
			t.Errorf("witnesses drifted from %s.\n--- got ---\n%s\n--- want ---\n%s",
				golden, strings.Join(got, "\n"), strings.Join(want[name], "\n"))
		}
	}
	for _, s := range scenarios.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			scale := 0.02
			if s.Name == "TPCH" {
				// TPCH's widest join makes the brute-force reference
				// quadratic; a smaller instance keeps the -race run fast.
				scale = 0.005
			}
			check(t, s.Name, s.NewInstance(scale), scenarioRetrievals(t, s))
		})
	}
	// No Sec. VI source is multi-keyed, so the multi-key protocol's
	// retrievals come from Mondial with a second key (name) on Country,
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
		var rs []retrievalCase
		for _, m := range set.Mappings {
			if m.Ambiguous() {
				m = m.Interpretation(make([]int, len(m.OrGroups)))
			}
			rs = append(rs, multiKeyRetrievals(w, m)...)
		}
		if len(rs) == 0 {
			t.Fatal("no multi-key retrievals on Mondial with two keys")
		}
		check(t, "MondialTwoKeys", s.NewInstance(0.02), rs)
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
// twice over one wizard keeps its index store and builds no assignment
// table the first pass did not already build. The mapping is the first
// whose retrievals reach a table at all; a mapping whose probes are all
// refuted builds none.
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
	tables := func(o *obs.Obs) int {
		n := 0
		for _, rec := range o.Tr.Finished() {
			if rec.Name == obs.SpanMuseGTable {
				n++
			}
		}
		return n
	}
	for _, m := range set.Mappings {
		if m.Ambiguous() || len(m.SKs) == 0 {
			continue
		}
		w := NewGroupingWizard(s.Src, in)
		w.Obs = obs.New()
		if _, err := w.DesignMapping(m, d); err != nil {
			t.Fatal(err)
		}
		store := w.Store
		if store == nil {
			t.Fatal("wizard retrieved examples without creating a store")
		}
		first := tables(w.Obs)
		if first == 0 {
			continue
		}
		if _, err := w.DesignMapping(m, d); err != nil {
			t.Fatal(err)
		}
		if again := tables(w.Obs); again != first || w.Store != store {
			t.Errorf("%s: second pass built %d extra tables (store kept: %v); want full reuse", m.Name, again-first, w.Store == store)
		}
		return
	}
	t.Fatal("no unambiguous Mondial mapping retrieves examples from an assignment table")
}

// alwaysAnswer is a designer that picks the same scenario every time.
type alwaysAnswer int

func (a alwaysAnswer) ChooseScenario(q *GroupingQuestion) (int, error) { return int(a), nil }
