package query

import (
	"context"
	"errors"
	"strconv"
	"testing"
	"time"

	"muse/internal/instance"
	"muse/internal/nr"
	"muse/internal/obs"
)

// crossQueryScenario builds an instance and a deliberately unindexable
// query (a three-way cross product filtered by inequalities that never
// all hold), so evaluation visits n^3 candidate combinations.
func crossQueryScenario(n int) (*instance.Instance, *Query) {
	src := nr.MustCatalog(nr.MustSchema("S", nr.Record(
		nr.F("A", nr.SetOf(nr.Record(nr.F("a", nr.StringType())))),
		nr.F("B", nr.SetOf(nr.Record(nr.F("b", nr.StringType())))),
		nr.F("C", nr.SetOf(nr.Record(nr.F("c", nr.StringType())))),
	)))
	in := instance.New(src)
	for i := 0; i < n; i++ {
		s := strconv.Itoa(i)
		in.MustInsertVals("A", "v"+s)
		in.MustInsertVals("B", "v"+s)
		in.MustInsertVals("C", "v"+s)
	}
	q := &Query{
		Src: src,
		Atoms: []Atom{
			{Var: "x", Set: nr.ParsePath("A"), Bind: map[string]string{"a": "va"}},
			{Var: "y", Set: nr.ParsePath("B"), Bind: map[string]string{"b": "vb"}},
			{Var: "z", Set: nr.ParsePath("C"), Bind: map[string]string{"c": "vc"}},
		},
		// No equalities to index on; the inequalities only prune at the
		// deepest level, so the search space stays n^3.
		Neq: [][2]string{{"va", "vb"}, {"vb", "vc"}, {"va", "vc"}},
	}
	return in, q
}

func TestEvalCtxCancelStopsPromptly(t *testing.T) {
	in, q := crossQueryScenario(200)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := q.Eval(in, Options{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Eval after cancel: err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("cancelled Eval took %v, want prompt abort", elapsed)
	}
}

func TestEvalCtxAlreadyCancelled(t *testing.T) {
	in, q := crossQueryScenario(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ms, err := q.Eval(in, Options{Ctx: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Eval with cancelled ctx: err = %v, want context.Canceled", err)
	}
	if len(ms) != 0 {
		t.Fatalf("Eval with cancelled ctx returned %d matches", len(ms))
	}
}

func TestEvalCtxBackgroundUnchanged(t *testing.T) {
	in, q := crossQueryScenario(6)
	plain, err := q.Eval(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := q.Eval(in, Options{Ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(withCtx) {
		t.Fatalf("ctx-threaded Eval returned %d matches, plain %d", len(withCtx), len(plain))
	}
}

// cancelOnSecondErr is a context whose Err reports cancellation from
// its second call on: Eval's fail-fast check passes, and the first
// poll inside the search aborts. It makes the abort point depend only
// on how often the search polls, not on timing.
type cancelOnSecondErr struct {
	context.Context
	calls int
}

func (c *cancelOnSecondErr) Err() error {
	c.calls++
	if c.calls >= 2 {
		return context.Canceled
	}
	return nil
}

// TestEvalPollsPerCandidate: a level whose candidates all fail to bind
// never recurses, so the abort poll must advance per candidate
// examined. Two scans over A, where the inequality rejects every inner
// candidate, must stop within the first inner scan: at most 3×|A| rows
// scanned, not one inner scan per outer tuple.
func TestEvalPollsPerCandidate(t *testing.T) {
	const n = 4000
	src := nr.MustCatalog(nr.MustSchema("S", nr.Record(
		nr.F("A", nr.SetOf(nr.Record(nr.F("id", nr.StringType()), nr.F("k", nr.StringType())))),
	)))
	in := instance.New(src)
	for i := 0; i < n; i++ {
		in.MustInsertVals("A", "a"+strconv.Itoa(i), "k")
	}
	q := &Query{
		Src: src,
		Atoms: []Atom{
			{Var: "x", Set: nr.ParsePath("A"), Bind: map[string]string{"k": "v"}},
			{Var: "y", Set: nr.ParsePath("A"), Bind: map[string]string{"k": "w"}},
		},
		Neq: [][2]string{{"v", "w"}},
	}
	o := obs.New()
	_, err := q.Eval(in, Options{Ctx: &cancelOnSecondErr{Context: context.Background()}, Obs: o})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Eval: err = %v, want context.Canceled", err)
	}
	if scanned := o.Reg.Counter(obs.MQueryRowsScanned).Value(); scanned > 3*n {
		t.Fatalf("aborted Eval scanned %d rows, want at most %d", scanned, 3*n)
	}
}
