package query

import (
	"context"
	"errors"
	"slices"
	"strconv"
	"testing"

	"muse/internal/instance"
	"muse/internal/nr"
	"muse/internal/obs"
)

// crossQueryScenario builds an instance and a deliberately unindexable
// query: a three-way cross product over n tuples per set, whose bound
// attribute takes one of domain values, filtered by inequalities that
// make the three bound values pairwise distinct. Each tuple also has a
// key of its own, left unbound, so no two tuples of a set coincide.
// With no equality to index on, evaluation visits on the order of n^3
// candidate combinations; with domain 2, by pigeonhole, none matches.
func crossQueryScenario(n, domain int) (*instance.Instance, *Query) {
	src := nr.MustCatalog(nr.MustSchema("S", nr.Record(
		nr.F("A", nr.SetOf(nr.Record(nr.F("k", nr.StringType()), nr.F("a", nr.StringType())))),
		nr.F("B", nr.SetOf(nr.Record(nr.F("k", nr.StringType()), nr.F("b", nr.StringType())))),
		nr.F("C", nr.SetOf(nr.Record(nr.F("k", nr.StringType()), nr.F("c", nr.StringType())))),
	)))
	in := instance.New(src)
	for i := 0; i < n; i++ {
		k, v := strconv.Itoa(i), "v"+strconv.Itoa(i%domain)
		in.MustInsertVals("A", "a"+k, v)
		in.MustInsertVals("B", "b"+k, v)
		in.MustInsertVals("C", "c"+k, v)
	}
	q := &Query{
		Src: src,
		Atoms: []Atom{
			{Var: "x", Set: nr.ParsePath("A"), Bind: map[string]string{"a": "va"}},
			{Var: "y", Set: nr.ParsePath("B"), Bind: map[string]string{"b": "vb"}},
			{Var: "z", Set: nr.ParsePath("C"), Bind: map[string]string{"c": "vc"}},
		},
		Neq: [][2]string{{"va", "vb"}, {"vb", "vc"}, {"va", "vc"}},
	}
	return in, q
}

// TestEvalCtxCancelStopsPromptly: a cancelled context stops a search
// that, matching nothing, would otherwise run until the search budget
// ends it, some n^3/2 rows in. The context cancels from its second Err
// call, so the first poll inside the search aborts, within the first
// few candidate lists of n rows, whatever the timing.
func TestEvalCtxCancelStopsPromptly(t *testing.T) {
	const n = 200
	in, q := crossQueryScenario(n, 2)
	o := obs.New()
	ms, err := q.Eval(in, Options{Ctx: &cancelOnSecondErr{Context: context.Background()}, Obs: o})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Eval after cancel: err = %v, want context.Canceled", err)
	}
	if len(ms) != 0 {
		t.Fatalf("cancelled Eval returned %d matches", len(ms))
	}
	if scanned := o.Reg.Counter(obs.MQueryRowsScanned).Value(); scanned > 5*n {
		t.Fatalf("cancelled Eval scanned %d rows, want at most %d", scanned, 5*n)
	}
}

func TestEvalCtxAlreadyCancelled(t *testing.T) {
	in, q := crossQueryScenario(4, 2)
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

// TestEvalCtxBackgroundUnchanged: threading a live context changes no
// match of a query that has some.
func TestEvalCtxBackgroundUnchanged(t *testing.T) {
	in, q := crossQueryScenario(6, 3)
	plain, err := q.Eval(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) == 0 {
		t.Fatal("the three-valued cross product has no matches")
	}
	withCtx, err := q.Eval(in, Options{Ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(withCtx) {
		t.Fatalf("ctx-threaded Eval returned %d matches, plain %d", len(withCtx), len(plain))
	}
	for i := range plain {
		if !slices.Equal(plain[i].Tuples, withCtx[i].Tuples) {
			t.Fatalf("match %d differs with a context", i)
		}
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
