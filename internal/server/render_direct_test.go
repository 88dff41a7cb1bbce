package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"muse/internal/core"
	"muse/internal/obs"
	"muse/internal/query"
)

// encodeRef renders body the way writeJSON does — compact
// encoding/json Encoder output — and is the reference the direct
// renderer must match byte for byte.
func encodeRef(t *testing.T, body any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(body); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func diffAt(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// requireSameStep checks both render paths on one step.
func requireSameStep(t *testing.T, s *Session, step core.Step) {
	t.Helper()
	want := encodeRef(t, stepBody(s, step))
	w := getJW()
	appendStepBody(w, s, step)
	got := append([]byte(nil), w.bytes()...)
	putJW(w)
	if !bytes.Equal(got, want) {
		i := diffAt(got, want)
		t.Fatalf("direct step rendering diverges at byte %d:\n direct: %.120q\n  ref:   %.120q", i, got[max(0, i-40):], want[max(0, i-40):])
	}
}

// TestRenderDirectDialogs drives full dialogs over every builtin
// scenario through the Stepper — with ranking disabled and enabled —
// and requires the direct renderer to reproduce the encoding/json
// output byte-identically on every step: grouping questions (with and
// without the "ranking" block), choice questions (ditto "rankings"),
// the terminal step, and the result document.
func TestRenderDirectDialogs(t *testing.T) {
	ctx := context.Background()
	for _, threshold := range []float64{0, 0.1} {
		for name := range Builtin() {
			label := name
			if threshold > 0 {
				label += "-ranked"
			}
			t.Run(label, func(t *testing.T) {
				mg := NewManager(Builtin(), obs.New())
				mg.AutoThreshold = threshold
				defer mg.Close()
				s, err := mg.Create(ctx, name)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Release()

				step, err := s.Stepper.Step(ctx)
				if err != nil {
					t.Fatal(err)
				}
				ranked := 0
				for n := 0; !step.Done; n++ {
					if n > 100 {
						t.Fatal("dialog did not terminate")
					}
					requireSameStep(t, s, step)
					var a core.Answer
					switch {
					case step.Grouping != nil:
						if step.Grouping.Ranking != nil {
							ranked++
						}
						a.Scenario = 1 + n%2
					case step.Choice != nil:
						if len(step.Choice.Rankings) > 0 {
							ranked++
						}
						a.Choices = make([][]int, len(step.Choice.Choices))
						for i := range a.Choices {
							a.Choices[i] = []int{0}
						}
					}
					if step, err = s.Stepper.Answer(ctx, a); err != nil {
						t.Fatal(err)
					}
				}
				requireSameStep(t, s, step)
				if step.Err != nil {
					t.Fatalf("dialog failed: %v", step.Err)
				}
				if threshold > 0 && ranked == 0 {
					t.Fatal("AutoThreshold set but no step carried a ranking")
				}
				if threshold == 0 && ranked != 0 {
					t.Fatalf("ranking disabled but %d step(s) carried one", ranked)
				}

				// The terminal result document.
				res := s.Stepper.Result()
				want := encodeRef(t, map[string]any{
					"token": s.Token, "scenario": s.ScenarioName,
					"state": "done", "questions": res.Seq, "mappings": renderMappings(res.Result),
				})
				w := getJW()
				appendResult(w, s, res)
				got := append([]byte(nil), w.bytes()...)
				putJW(w)
				if !bytes.Equal(got, want) {
					t.Fatalf("direct result rendering diverges at byte %d", diffAt(got, want))
				}
			})
		}
	}
}

// TestRenderDirectFailed covers the failed terminal step and result
// documents, on a fabricated terminal error whose text needs JSON and
// HTML escaping.
func TestRenderDirectFailed(t *testing.T) {
	s := &Session{Token: "deadbeef", ScenarioName: "fig1"}
	step := core.Step{Seq: 2, Done: true, Err: errors.New("boom: <wizard & \"chase\"> aborted\n\u2028")}
	requireSameStep(t, s, step)

	want := encodeRef(t, map[string]any{
		"token": s.Token, "scenario": s.ScenarioName,
		"state": "failed", "error": step.Err.Error(),
	})
	w := getJW()
	appendResult(w, s, step)
	got := append([]byte(nil), w.bytes()...)
	putJW(w)
	if !bytes.Equal(got, want) {
		t.Fatalf("direct failed-result rendering diverges at byte %d:\n direct: %q\n ref:    %q", diffAt(got, want), got, want)
	}
}

// TestWriteEscaped checks the string escaper against encoding/json on
// a corpus of adversarial strings: JSON specials, control bytes, the
// HTML escapes, multi-byte runes, U+2028/U+2029, and invalid UTF-8.
func TestWriteEscaped(t *testing.T) {
	corpus := []string{
		"",
		"plain ascii",
		`quotes " and \ backslash`,
		"tab\tnewline\ncarriage\rreturn",
		"controls \x00\x01\x1f\x7f",
		"html <b>&amp;</b>",
		"unicode: héllo wörld — ✓ 日本語",
		"line sep \u2028 and para sep \u2029",
		"invalid \xff\xfe utf8 \xc3\x28 tail",
		"mixed <\u2028\xffcontrol\x02> & done",
	}
	for _, s := range corpus {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		writeEscapedString(&b, s)
		if got := b.Bytes(); !bytes.Equal(got, want) {
			t.Errorf("writeEscapedString(%q) = %s, want %s", s, got, want)
		}
		b.Reset()
		writeEscapedBytes(&b, []byte(s))
		if got := b.Bytes(); !bytes.Equal(got, want) {
			t.Errorf("writeEscapedBytes(%q) = %s, want %s", s, got, want)
		}
	}
}

// TestPrime checks that priming builds the shared stores up front and
// counts every statistic a dialog reads, so that a full ranked dialog on
// each builtin scenario runs no statistics pass, and that Prime under a
// done context counts nothing.
func TestPrime(t *testing.T) {
	ctx := context.Background()
	dead, cancel := context.WithCancel(ctx)
	cancel()
	idle := NewManager(Builtin(), nil)
	defer idle.Close()
	idle.Prime(dead)
	for name, sc := range idle.Scenarios {
		if sc.store == nil {
			continue
		}
		if p := sc.store.Passes(); p != (query.Passes{}) {
			t.Errorf("scenario %s: Prime under a done context ran %+v passes", name, p)
		}
	}

	mg := NewManager(Builtin(), obs.New())
	mg.AutoThreshold = 0.1
	defer mg.Close()
	mg.Prime(ctx)
	primed := make(map[string]query.Passes)
	for name, sc := range mg.Scenarios {
		if sc.Real != nil && sc.store == nil {
			t.Fatalf("scenario %s: store not built by Prime", name)
		}
		if primed[name] = sc.store.Passes(); primed[name].Stats == 0 || primed[name].Unique != 0 {
			t.Errorf("scenario %s: Prime ran %+v passes, want statistics passes only", name, primed[name])
		}
	}
	if n := mg.Len(); n != 0 {
		t.Errorf("Prime registered %d sessions, want 0", n)
	}
	for _, name := range []string{"fig1", "fig4"} {
		s, err := mg.Create(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		step, err := s.Stepper.Step(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if name == "fig1" && step.Grouping == nil {
			t.Fatalf("first fig1 step = %+v, want grouping question", step)
		}
		for n := 0; !step.Done; n++ {
			if n > 100 {
				t.Fatal("dialog did not terminate")
			}
			var a core.Answer
			switch {
			case step.Grouping != nil:
				a.Scenario = 1 + n%2
			case step.Choice != nil:
				a.Choices = make([][]int, len(step.Choice.Choices))
				for i := range a.Choices {
					a.Choices[i] = []int{0}
				}
			}
			if step, err = s.Stepper.Answer(ctx, a); err != nil {
				t.Fatal(err)
			}
		}
		s.Release()
		if step.Err != nil || step.Seq == 0 {
			t.Fatalf("scenario %s: dialog ended after %d questions with %v", name, step.Seq, step.Err)
		}
		if got := mg.Scenarios[name].store.Passes().Stats - primed[name].Stats; got != 0 {
			t.Errorf("scenario %s: a full dialog after Prime ran %d statistics passes, want 0", name, got)
		}
	}
}
