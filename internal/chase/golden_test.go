package chase_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"muse/internal/chase"
	"muse/internal/instance"
	"muse/internal/mapping"
	"muse/internal/scenarios"
)

// orderDigest hashes the instance in insertion order: occurrences in
// AllSets (creation) order, tuples in Each order. Unlike String, which
// sorts tuples, it pins the order the server renders questions in.
func orderDigest(in *instance.Instance) [32]byte {
	var b strings.Builder
	for _, s := range in.AllSets() {
		fmt.Fprintf(&b, "set %s %s\n", s.Type.Path, s.ID.Key())
		s.Each(func(t *instance.Tuple) bool {
			b.WriteString(t.Key())
			b.WriteByte('\n')
			return true
		})
	}
	return sha256.Sum256([]byte(b.String()))
}

// TestChaseGolden pins the chase's output bytes: for every evaluation
// scenario at scale 0.02 (ambiguous mappings at their first
// interpretation) and for Fig. 1's m1–m3, the digest of the canonical
// rendering and of the insertion-order rendering must match
// testdata/scenario_chase.golden. NaiveChase agrees only up to
// isomorphism, so this is what catches renamed nulls or reordered
// tuples. Record the file with UPDATE_GOLDEN=1.
func TestChaseGolden(t *testing.T) {
	type chaseCase struct {
		name string
		src  *instance.Instance
		ms   []*mapping.Mapping
	}
	var cases []chaseCase
	for _, s := range scenarios.All() {
		set, err := s.Generate()
		if err != nil {
			t.Fatal(err)
		}
		var ms []*mapping.Mapping
		for _, m := range set.Mappings {
			if m.Ambiguous() {
				m = m.Interpretation(make([]int, len(m.OrGroups)))
			}
			ms = append(ms, m)
		}
		cases = append(cases, chaseCase{s.Name, s.NewInstance(0.02), ms})
	}
	f := scenarios.NewFigure1(false)
	cases = append(cases, chaseCase{"Fig1", f.Source, []*mapping.Mapping{f.M1, f.M2, f.M3}})

	var got []string
	for _, c := range cases {
		out, err := chase.Chase(c.src, c.ms...)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got = append(got, fmt.Sprintf("%s %x %x", c.name, sha256.Sum256([]byte(out.String())), orderDigest(out)))
	}

	golden := filepath.Join("testdata", "scenario_chase.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to record)", err)
	}
	if want := strings.TrimSpace(string(data)); strings.Join(got, "\n") != want {
		t.Errorf("chase output drifted from %s.\n--- got ---\n%s\n--- want ---\n%s", golden, strings.Join(got, "\n"), want)
	}
}
