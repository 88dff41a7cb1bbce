package chase

import (
	"context"
	"errors"
	"strconv"
	"testing"
	"time"

	"muse/internal/instance"
	"muse/internal/mapping"
	"muse/internal/nr"
)

// bigCrossScenario builds a three-way cross-product mapping over n
// tuples per set — n^3 assignments, enough that an uncancelled chase
// runs for a long time while a cancelled one must return promptly.
func bigCrossScenario(n int) (*instance.Instance, *mapping.Mapping) {
	src := nr.MustCatalog(nr.MustSchema("S", nr.Record(
		nr.F("A", nr.SetOf(nr.Record(nr.F("a", nr.StringType())))),
		nr.F("B", nr.SetOf(nr.Record(nr.F("b", nr.StringType())))),
		nr.F("C", nr.SetOf(nr.Record(nr.F("c", nr.StringType())))),
	)))
	tgt := nr.MustCatalog(nr.MustSchema("T", nr.Record(
		nr.F("Out", nr.SetOf(nr.Record(
			nr.F("a", nr.StringType()),
			nr.F("b", nr.StringType()),
			nr.F("c", nr.StringType()),
		))),
	)))
	in := instance.New(src)
	for i := 0; i < n; i++ {
		s := strconv.Itoa(i)
		in.MustInsertVals("A", "a"+s)
		in.MustInsertVals("B", "b"+s)
		in.MustInsertVals("C", "c"+s)
	}
	m := &mapping.Mapping{
		Name: "cross", Src: src, Tgt: tgt,
		For: []mapping.Gen{
			mapping.FromRoot("x", "A"),
			mapping.FromRoot("y", "B"),
			mapping.FromRoot("z", "C"),
		},
		Exists: []mapping.Gen{mapping.FromRoot("o", "Out")},
		Where: []mapping.Eq{
			{L: mapping.E("x", "a"), R: mapping.E("o", "a")},
			{L: mapping.E("y", "b"), R: mapping.E("o", "b")},
			{L: mapping.E("z", "c"), R: mapping.E("o", "c")},
		},
	}
	return in, m
}

func TestChaseCtxCancelStopsPromptly(t *testing.T) {
	in, m := bigCrossScenario(150) // 3.4M assignments: seconds uncancelled
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	out, err := ChaseCtx(ctx, in, nil, m)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ChaseCtx after cancel: err = %v, want context.Canceled", err)
	}
	if out != nil {
		t.Fatalf("cancelled chase returned a partial instance")
	}
	// Generous bound (slow CI): the full chase takes far longer.
	if elapsed > 3*time.Second {
		t.Fatalf("cancelled chase took %v, want prompt abort", elapsed)
	}
}

func TestChaseCtxDeadline(t *testing.T) {
	in, m := bigCrossScenario(150)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	_, err := ChaseCtx(ctx, in, nil, m)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ChaseCtx past deadline: err = %v, want DeadlineExceeded", err)
	}
}

func TestChaseCtxBackgroundIdentical(t *testing.T) {
	in, m := bigCrossScenario(8)
	a, err := ChaseCtx(context.Background(), in, nil, m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Chase(in, m)
	if err != nil {
		t.Fatal(err)
	}
	if a.StringCompact() != b.StringCompact() {
		t.Fatal("ChaseCtx(Background) differs from Chase")
	}
}
