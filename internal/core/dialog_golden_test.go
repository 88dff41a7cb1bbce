package core_test

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"muse/internal/core"
	"muse/internal/deps"
	"muse/internal/instance"
	"muse/internal/mapping"
	"muse/internal/parser"
	"muse/internal/rank"
	"muse/internal/scenarios"
)

// dialogRecorder answers every wizard question from a seeded rand
// stream and hashes each question the designer sees, with its answer,
// twice: q hashes the question stream without its example renderings
// (sources, scenarios, partial targets, Muse-D choice values and join
// examples), h the full stream.
type dialogRecorder struct {
	r    *rand.Rand
	q, h hash.Hash
	both io.Writer
	n    int
}

func newDialogRecorder(seed int64) *dialogRecorder {
	d := &dialogRecorder{r: rand.New(rand.NewSource(seed)), q: sha256.New(), h: sha256.New()}
	d.both = io.MultiWriter(d.q, d.h)
	return d
}

func (d *dialogRecorder) ChooseScenario(q *core.GroupingQuestion) (int, error) {
	ans := 1 + d.r.Intn(2)
	d.n++
	fmt.Fprintf(d.both, "grouping kind=%d mapping=%s sk=%s probe=%s real=%v\n", q.Kind, q.Mapping.Name, q.SK, q.Probe, q.Real)
	fmt.Fprintf(d.both, "confirmed=%v include1=%v include2=%v\n", q.Confirmed, q.Include1, q.Include2)
	fmt.Fprintf(d.h, "source:\n%sscenario1:\n%sscenario2:\n%s", q.Source, q.Scenario1, q.Scenario2)
	if q.Ranking != nil {
		hashRanking(d.both, *q.Ranking)
	}
	fmt.Fprintf(d.both, "answer %d\n", ans)
	return ans, nil
}

func (d *dialogRecorder) SelectValues(q *core.ChoiceQuestion) ([][]int, error) {
	d.n++
	fmt.Fprintf(d.both, "choice mapping=%s real=%v\n", q.Mapping.Name, q.Real)
	fmt.Fprintf(d.h, "source:\n%starget:\n%s", q.Source, q.Target)
	for _, ch := range q.Choices {
		fmt.Fprintf(d.q, "element %s: %d values\n", ch.Element, len(ch.Values))
		fmt.Fprintf(d.h, "element %s: %v\n", ch.Element, ch.Values)
	}
	for _, rk := range q.Rankings {
		hashRanking(d.both, rk)
	}
	sel := make([][]int, len(q.Choices))
	for gi, ch := range q.Choices {
		for i := range ch.Values {
			if d.r.Intn(2) == 0 {
				sel[gi] = append(sel[gi], i)
			}
		}
		if len(sel[gi]) == 0 {
			sel[gi] = []int{d.r.Intn(len(ch.Values))}
		}
	}
	fmt.Fprintf(d.both, "answer %v\n", sel)
	return sel, nil
}

func (d *dialogRecorder) ChooseJoin(q *core.JoinQuestion) (bool, error) {
	ans := d.r.Intn(2) == 0
	d.n++
	fmt.Fprintf(d.both, "join mapping=%s variant=%s keep=%v real=%v\n", q.Mapping.Name, q.Variant.Mapping.Name, q.Variant.Keep, q.Real)
	fmt.Fprintf(d.h, "source:\n%swith:\n%swithout:\n%s", q.Source, q.WithVariant, q.WithoutVariant)
	fmt.Fprintf(d.both, "answer %v\n", ans)
	return ans, nil
}

func hashRanking(h io.Writer, rk rank.Ranking) {
	fmt.Fprintf(h, "ranking best=%d confidence=%v decisive=%v\n", rk.Best, rk.Confidence, rk.Decisive)
	for _, s := range rk.Scores {
		fmt.Fprintf(h, "score %d %v %s\n", s.Option, s.Value, s.Evidence)
	}
}

// line closes the dialog: the result joins both hashes, and the golden
// line reads "name questions question-digest full-digest".
func (d *dialogRecorder) line(name string, result ...*mapping.Mapping) string {
	for _, m := range result {
		fmt.Fprintf(d.both, "result\n%s\n", parser.FormatMapping(m))
	}
	return fmt.Sprintf("%s %d %x %x", name, d.n, d.q.Sum(nil), d.h.Sum(nil))
}

// TestDialogGolden pins whole dialogs: every question each wizard poses
// (kind, mapping, grouping function, probe, argument lists, source and
// scenario renderings, real flag, choices, join variants and rankings),
// every answer of a seeded random designer, and the refined mappings,
// hashed per dialog into testdata/dialogs.golden. Each line holds two
// digests: the first leaves out the example renderings, so a change
// that only moves which real example a question shows keeps it, and the
// second hashes everything. Record the file with UPDATE_GOLDEN=1.
func TestDialogGolden(t *testing.T) {
	var got []string
	run := func(name string, seed int64, dialog func(d *dialogRecorder) ([]*mapping.Mapping, error)) {
		d := newDialogRecorder(seed)
		out, err := dialog(d)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got = append(got, d.line(name, out...))
	}
	session := func(s *core.Session, set *mapping.Set) func(d *dialogRecorder) ([]*mapping.Mapping, error) {
		return func(d *dialogRecorder) ([]*mapping.Mapping, error) {
			out, err := s.Run(set, d, d)
			if err != nil {
				return nil, err
			}
			return out.Mappings, nil
		}
	}

	// The Sec. VI scenarios: full sessions, join design on every
	// unambiguous mapping, and instance-only grouping design of the
	// first mapping with a grouping function.
	for _, sc := range scenarios.All() {
		set, err := sc.Generate()
		if err != nil {
			t.Fatal(err)
		}
		in := sc.NewInstance(0.02)
		for seed := int64(1); seed <= 3; seed++ {
			for _, ranked := range []bool{false, true} {
				s := core.NewSession(sc.Src, in)
				name := fmt.Sprintf("%s/session/seed%d", sc.Name, seed)
				if ranked {
					s.Rank(0.15)
					name += "/ranked"
				}
				run(name, seed, session(s, set))
			}
		}
		instanceOnly := false
		for _, m := range set.Mappings {
			if m.Ambiguous() {
				continue
			}
			run(fmt.Sprintf("%s/joins/%s", sc.Name, m.Name), 1, func(d *dialogRecorder) ([]*mapping.Mapping, error) {
				w := core.NewDisambiguationWizard(sc.Src, in)
				return w.DesignJoins(m, d)
			})
			if instanceOnly || len(m.SKs) == 0 {
				continue
			}
			instanceOnly = true
			run(fmt.Sprintf("%s/instance-only/%s", sc.Name, m.Name), 1, func(d *dialogRecorder) ([]*mapping.Mapping, error) {
				w := core.NewGroupingWizard(sc.Src, in)
				w.InstanceOnly = true
				out, err := w.DesignMapping(m, d)
				return []*mapping.Mapping{out}, err
			})
		}
	}

	// Fig. 1: ranked sessions, and the incremental questions from four
	// starting argument lists of m2's SKProjects.
	starts := [][]mapping.Expr{
		{mapping.E("c", "cname")},
		{mapping.E("c", "cname"), mapping.E("c", "location")},
		{mapping.E("c", "cid"), mapping.E("c", "cname"), mapping.E("p", "pname")},
		scenarios.NewFigure1(false).M2.Poss(),
	}
	for _, keys := range []bool{false, true} {
		fig := "fig1"
		if keys {
			fig = "fig1-keys"
		}
		for seed := int64(1); seed <= 4; seed++ {
			f := scenarios.NewFigure1(keys)
			s := core.NewSession(f.SrcDeps, f.Source).Rank(0.15)
			run(fmt.Sprintf("%s/session/seed%d", fig, seed), seed, session(s, f.Set))
		}
		for i, args := range starts {
			for seed := int64(1); seed <= 3; seed++ {
				for _, real := range []bool{false, true} {
					f := scenarios.NewFigure1(keys)
					var src *instance.Instance
					if real {
						src = f.Source
					}
					m := f.M2.WithSK("SKProjects", args)
					for _, incr := range []string{"group-less", "group-more"} {
						name := fmt.Sprintf("%s/%s/start%d/seed%d/real=%v", fig, incr, i, seed, real)
						run(name, seed, func(d *dialogRecorder) ([]*mapping.Mapping, error) {
							w := core.NewGroupingWizard(f.SrcDeps, src)
							refine := w.GroupLess
							if incr == "group-more" {
								refine = w.GroupMore
							}
							out, err := refine(m, "SKProjects", d)
							return []*mapping.Mapping{out}, err
						})
					}
				}
			}
		}
	}

	// Fig. 1 with keys on cid and cname: the multi-key question.
	for seed := int64(1); seed <= 6; seed++ {
		for _, real := range []bool{false, true} {
			f := scenarios.NewFigure1(false)
			sd := deps.NewSet(f.Src)
			sd.MustAddKey("Companies", "cid")
			sd.MustAddKey("Companies", "cname")
			var src *instance.Instance
			if real {
				src = f.Source
			}
			run(fmt.Sprintf("fig1-multikey/seed%d/real=%v", seed, real), seed, func(d *dialogRecorder) ([]*mapping.Mapping, error) {
				w := core.NewGroupingWizard(sd, src)
				out, err := w.DesignSK(f.M2, "SKProjects", d)
				return []*mapping.Mapping{out}, err
			})
		}
	}

	// Fig. 4: ranked sessions (Muse-D over two or-groups).
	for seed := int64(1); seed <= 4; seed++ {
		f := scenarios.NewFigure4()
		s := core.NewSession(f.SrcDeps, f.Source).Rank(0.15)
		run(fmt.Sprintf("fig4/session/seed%d", seed), seed, session(s, f.Set))
	}

	golden := filepath.Join("testdata", "dialogs.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with UPDATE_GOLDEN=1 to record)", err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d dialogs, %s has %d", len(got), golden, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("dialog drifted from %s:\n got %s\nwant %s", golden, got[i], want[i])
		}
	}
}
