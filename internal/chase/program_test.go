package chase_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"muse/internal/chase"
	"muse/internal/instance"
	"muse/internal/mapping"
	"muse/internal/obs"
	"muse/internal/scenarios"
)

// chaseRecord is everything a chase shows: its output, the registry's
// text, and each span's name and attributes in finish order.
type chaseRecord struct {
	out     *instance.Instance
	metrics string
	spans   string
}

// same reports whether two chases showed the same: outputs identical in
// insertion order, the same counters and the same spans.
func (r chaseRecord) same(o chaseRecord) bool {
	return sameInOrder(r.out, o.out) && r.metrics == o.metrics && r.spans == o.spans
}

// sameInOrder reports whether a and b hold the same occurrences (their
// SetIDs SameValue) in the same creation order, each with the same
// tuples (SameTuple) in the same insertion order: then every rendering
// of the two, canonical or in insertion order, has the same bytes. It
// stands in for comparing renderings, which grow quadratically with
// the nesting when a grouping function groups by few arguments.
func sameInOrder(a, b *instance.Instance) bool {
	as, bs := a.AllSets(), b.AllSets()
	if len(as) != len(bs) {
		return false
	}
	for i, x := range as {
		y := bs[i]
		if x.Type != y.Type || !instance.SameValue(x.ID, y.ID) || x.Len() != y.Len() {
			return false
		}
		yv := y.View()
		for k, t := range x.View() {
			if !instance.SameTuple(t, yv[k]) {
				return false
			}
		}
	}
	return true
}

func record(t *testing.T, chaseFn func(o *obs.Obs) (*instance.Instance, error)) chaseRecord {
	t.Helper()
	o := obs.New()
	out, err := chaseFn(o)
	if err != nil {
		t.Fatal(err)
	}
	var metrics, spans strings.Builder
	if err := o.Reg.WriteText(&metrics); err != nil {
		t.Fatal(err)
	}
	for _, r := range o.Tr.Finished() {
		fmt.Fprintln(&spans, r.Name, r.Attrs)
	}
	return chaseRecord{out, metrics.String(), spans.String()}
}

// unambiguous returns s's generated mappings, each ambiguous one at its
// first interpretation, as TestChaseGolden chases them.
func unambiguous(t *testing.T, s *scenarios.Scenario) []*mapping.Mapping {
	t.Helper()
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
	return ms
}

// randomArgs returns a seeded random subset of poss in random order,
// possibly empty.
func randomArgs(r *rand.Rand, poss []mapping.Expr) []mapping.Expr {
	args := slices.Clone(poss)
	r.Shuffle(len(args), func(i, j int) { args[i], args[j] = args[j], args[i] })
	return args[:r.Intn(len(args)+1)]
}

// TestProgramMatchesWithSK: for every Sec. VI mapping at scale 0.02,
// one compiled program, run for each grouping function with no
// arguments, with all of poss and with two seeded random subsets, shows
// exactly what chasing m.WithSK(fn, args) shows: the same output in the
// same insertion order, the same counters and the same spans. A plain
// Run shows what ChaseCtx(m) shows, down to the canonical bytes.
func TestProgramMatchesWithSK(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(1))
	for _, s := range scenarios.All() {
		src := s.NewInstance(0.02)
		for _, m := range unambiguous(t, s) {
			p, err := chase.Compile(m, src.Cat)
			if err != nil {
				t.Fatal(err)
			}
			got := record(t, func(o *obs.Obs) (*instance.Instance, error) { return p.Run(ctx, src, o) })
			want := record(t, func(o *obs.Obs) (*instance.Instance, error) { return chase.ChaseCtx(ctx, src, o, m) })
			if !got.same(want) || got.out.String() != want.out.String() || orderDigest(got.out) != orderDigest(want.out) {
				t.Errorf("%s/%s: Run differs from ChaseCtx:\n got %s%s\nwant %s%s", s.Name, m.Name, got.metrics, got.spans, want.metrics, want.spans)
			}
			poss := m.Poss()
			for _, sk := range m.SKs {
				fn := sk.SK.Fn
				for _, args := range [][]mapping.Expr{nil, poss, randomArgs(r, poss), randomArgs(r, poss)} {
					got := record(t, func(o *obs.Obs) (*instance.Instance, error) { return p.RunWithSK(ctx, src, o, fn, args) })
					want := record(t, func(o *obs.Obs) (*instance.Instance, error) {
						return chase.ChaseCtx(ctx, src, o, m.WithSK(fn, args))
					})
					if !got.same(want) {
						t.Errorf("%s/%s: RunWithSK(%s, %v) differs from ChaseCtx of WithSK:\n got %s%s\nwant %s%s", s.Name, m.Name, fn, args, got.metrics, got.spans, want.metrics, want.spans)
					}
				}
			}
		}
	}
}

// TestProgramReuse runs one program per mapping over alternating
// instances and argument lists, A, B, A: each run must equal a fresh
// program's, so nothing a run derives from its instance (a generator's
// top-level occurrence, its probe index) or its arguments outlives the
// run.
func TestProgramReuse(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(2))
	for _, s := range scenarios.All() {
		a, b := s.NewInstance(0.02), s.NewInstance(0.01)
		for _, m := range unambiguous(t, s) {
			p, err := chase.Compile(m, a.Cat)
			if err != nil {
				t.Fatal(err)
			}
			poss := m.Poss()
			for _, sk := range m.SKs {
				fn := sk.SK.Fn
				argsA, argsB := randomArgs(r, poss), randomArgs(r, poss)
				for i, run := range []struct {
					src  *instance.Instance
					args []mapping.Expr
				}{{a, argsA}, {b, argsB}, {a, argsA}} {
					got := record(t, func(o *obs.Obs) (*instance.Instance, error) {
						return p.RunWithSK(ctx, run.src, o, fn, run.args)
					})
					want := record(t, func(o *obs.Obs) (*instance.Instance, error) {
						fresh, err := chase.Compile(m, run.src.Cat)
						if err != nil {
							return nil, err
						}
						return fresh.RunWithSK(ctx, run.src, o, fn, run.args)
					})
					if !got.same(want) {
						t.Errorf("%s/%s/%s: run %d of a reused program differs from a fresh one", s.Name, m.Name, fn, i+1)
					}
				}
			}
		}
	}
}

// TestProgramErrors: a program refuses an instance of another catalog,
// an unknown grouping function, an argument outside its for clause and
// a dead context, with an error and no output, and runs as before
// afterwards. Compile refuses what Chase refuses.
func TestProgramErrors(t *testing.T) {
	f := scenarios.NewFigure1(false)
	ctx := context.Background()
	p, err := chase.Compile(f.M2, f.Src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := chase.Chase(f.Source, f.M2)
	if err != nil {
		t.Fatal(err)
	}
	dead, cancel := context.WithCancel(ctx)
	cancel()
	for name, runFn := range map[string]func() (*instance.Instance, error){
		"other catalog": func() (*instance.Instance, error) { return p.Run(ctx, instance.New(f.Tgt), nil) },
		"unknown SK":    func() (*instance.Instance, error) { return p.RunWithSK(ctx, f.Source, nil, "SKNone", nil) },
		"bad argument": func() (*instance.Instance, error) {
			return p.RunWithSK(ctx, f.Source, nil, "SKProjects", []mapping.Expr{mapping.E("zz", "cname")})
		},
		"bad attribute": func() (*instance.Instance, error) {
			return p.RunWithSK(ctx, f.Source, nil, "SKProjects", []mapping.Expr{mapping.E("c", "zz")})
		},
		"dead context":   func() (*instance.Instance, error) { return p.Run(dead, f.Source, nil) },
		"dead regrouped": func() (*instance.Instance, error) { return p.RunWithSK(dead, f.Source, nil, "SKProjects", nil) },
	} {
		out, err := runFn()
		if err == nil || out != nil {
			t.Errorf("%s: got (%v, %v), want an error and no output", name, out != nil, err)
		}
		if name == "dead context" && !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
	}
	got, err := p.Run(nil, f.Source, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Error("a program run after refused runs differs from Chase")
	}
	if _, err := chase.Compile(f.M2.WithSK("SKProjects", []mapping.Expr{mapping.E("zz", "cname")}), f.Src); err == nil {
		t.Error("Compile accepted a grouping argument outside the for clause")
	}
	amb := scenarios.NewFigure4()
	if _, err := chase.Compile(amb.MA, amb.Src); err == nil {
		t.Error("Compile accepted an ambiguous mapping")
	}
}

// TestProgramPinsNothing: once a run returns, the program references
// neither the run's source instance, nor its top-level occurrences, nor
// its output or the output's occurrences: every one of them is
// finalized once the test drops its own references.
func TestProgramPinsNothing(t *testing.T) {
	f := scenarios.NewFigure1(false)
	p, err := chase.Compile(f.M2, f.Src)
	if err != nil {
		t.Fatal(err)
	}
	src := randomSource(f, 7)
	out, err := p.RunWithSK(context.Background(), src, nil, "SKProjects", nil)
	if err != nil {
		t.Fatal(err)
	}
	freed := make(chan struct{}, 64)
	track := func(obj any) { runtime.SetFinalizer(obj, func(any) { freed <- struct{}{} }) }
	track(src)
	track(out)
	n := 2
	for _, in := range []*instance.Instance{src, out} {
		for _, s := range in.AllSets() {
			track(s)
			n++
		}
	}
	if n > cap(freed) {
		t.Fatalf("tracking %d objects, channel holds %d", n, cap(freed))
	}
	src, out = nil, nil
	// An instance is finalized one cycle before the occurrences it
	// holds, so collect until every finalizer has run.
	deadline := time.After(5 * time.Second)
	for got := 0; got < n; {
		runtime.GC()
		select {
		case <-freed:
			got++
		case <-time.After(10 * time.Millisecond):
		case <-deadline:
			t.Fatalf("%d of %d run objects were never freed", n-got, n)
		}
	}
	runtime.KeepAlive(p)
}
