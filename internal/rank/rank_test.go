package rank_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"muse/internal/core"
	"muse/internal/mapping"
	"muse/internal/query"
	"muse/internal/rank"
	"muse/internal/scenarios"
)

// rankedDialog drives a full auto-answered session over the scenario
// and flattens every question's ranking into one string: identical
// strings mean identical scores, identical recommended answers, and —
// because answers derive from the rankings — identical question order.
func rankedDialog(t *testing.T, sc *scenarios.Scenario, store *query.IndexStore) string {
	t.Helper()
	set, err := sc.Generate()
	if err != nil {
		t.Fatal(err)
	}
	real := sc.NewInstance(0.02)
	s := core.NewSession(sc.Src, real).Rank(0)
	if store != nil {
		// Warm path: the scorer and both wizards share a pre-built
		// store over an identical instance.
		s.Grouping.Store = store
		s.Disambiguation.Store = store
		s.Rank(0)
	}
	var b strings.Builder
	rec := &recordingDesigner{b: &b}
	out, err := s.Run(set, rec, rec)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "questions=%d\n", rec.n)
	for _, m := range out.Mappings {
		fmt.Fprintf(&b, "mapping %s\n", m.Name)
	}
	return b.String()
}

// recordingDesigner answers with the top-ranked option and logs every
// ranking verbatim.
type recordingDesigner struct {
	b *strings.Builder
	n int
}

func writeRanking(b *strings.Builder, r *rank.Ranking) {
	if r == nil {
		b.WriteString("ranking=nil\n")
		return
	}
	fmt.Fprintf(b, "best=%d conf=%.4f decisive=%v scores=", r.Best, r.Confidence, r.Decisive)
	for _, s := range r.Scores {
		fmt.Fprintf(b, "[%d %.4f %s]", s.Option, s.Value, s.Evidence)
	}
	b.WriteByte('\n')
}

func (d *recordingDesigner) ChooseScenario(q *core.GroupingQuestion) (int, error) {
	d.n++
	fmt.Fprintf(d.b, "G %s/%s probe=%s ", q.Mapping.Name, q.SK, q.Probe)
	writeRanking(d.b, q.Ranking)
	if q.Ranking == nil {
		return 1, nil
	}
	return q.Ranking.Best, nil
}

func (d *recordingDesigner) SelectValues(q *core.ChoiceQuestion) ([][]int, error) {
	d.n++
	fmt.Fprintf(d.b, "D %s\n", q.Mapping.Name)
	out := make([][]int, len(q.Choices))
	for i := range q.Choices {
		out[i] = []int{0}
		if len(q.Rankings) == len(q.Choices) {
			out[i] = []int{q.Rankings[i].Best - 1}
		}
	}
	for i := range q.Rankings {
		writeRanking(d.b, &q.Rankings[i])
	}
	return out, nil
}

// TestRankerDeterministic holds the ranker to its determinism
// contract on all four Sec. VI scenarios: identical scores, question
// order, and results across GOMAXPROCS 1, 2 and 8, and across a cold
// store (built lazily during the dialog) versus a warm one (fully
// pre-built before the first question).
func TestRankerDeterministic(t *testing.T) {
	for _, sc := range scenarios.All() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			ref := rankedDialog(t, sc, nil)
			for _, procs := range []int{1, 2, 8} {
				old := runtime.GOMAXPROCS(procs)
				got := rankedDialog(t, sc, nil)
				runtime.GOMAXPROCS(old)
				if got != ref {
					t.Fatalf("GOMAXPROCS=%d dialog diverged:\n--- reference ---\n%s\n--- got ---\n%s", procs, ref, got)
				}
			}

			// Warm store: pre-count every top-level set's statistics,
			// which the scorer consults.
			warm := query.NewIndexStore(sc.NewInstance(0.02))
			for _, st := range sc.Src.Cat.Sets {
				if st.Parent == nil {
					warm.Stats(st)
				}
			}
			if got := rankedDialog(t, sc, warm); got != ref {
				t.Fatalf("warm-store dialog diverged from cold:\n--- cold ---\n%s\n--- warm ---\n%s", ref, got)
			}
		})
	}
}

// TestScorerZeroValue pins the documented zero-value behavior: no
// constraints and no store still rank, evenly and indecisively.
func TestScorerZeroValue(t *testing.T) {
	sc := scenarios.Mondial()
	set, err := sc.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var s rank.Scorer
	for _, m := range set.Mappings {
		info := m.MustAnalyze()
		for _, v := range info.SrcOrder {
			st := info.SrcVars[v]
			for _, a := range st.Atoms {
				rk := s.ScoreProbe(m, mapping.E(v, a), nil)
				if rk.Decisive || rk.Confidence != 0 {
					t.Fatalf("zero-value scorer decisive on %s.%s: %+v", v, a, rk)
				}
				if len(rk.Scores) != 2 || rk.Scores[0].Value != rk.Scores[1].Value {
					t.Fatalf("zero-value scorer not even on %s.%s: %+v", v, a, rk)
				}
			}
			break
		}
		break
	}
}
