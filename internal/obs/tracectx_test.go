package obs

import (
	"context"
	"io"
	"strings"
	"testing"
)

// TestFinishedCompletionOrderAfterWrap is the regression test for the
// ring replay: once the ring has wrapped (several times over), Finished
// must still return exactly the last ringSize completions, oldest
// first — not the raw slice order, which after a wrap starts mid-ring.
func TestFinishedCompletionOrderAfterWrap(t *testing.T) {
	const ringCap, total = 4, 11 // 11 ends = 2 full wraps + 3
	tr := NewTracer(ringCap)
	spans := make([]*Span, total)
	for i := range spans {
		spans[i] = tr.Start("op")
	}
	// End in a fixed non-sequential order so completion order and start
	// order disagree.
	order := []int{3, 0, 7, 1, 9, 2, 10, 5, 4, 8, 6}
	for seq, idx := range order {
		spans[idx].Attr("seq", seq).End()
	}
	fin := tr.Finished()
	if len(fin) != ringCap {
		t.Fatalf("ring holds %d spans, want %d", len(fin), ringCap)
	}
	for i, rec := range fin {
		want := total - ringCap + i // the last ringCap completions
		if got := rec.Attrs[0].Val; got != want {
			t.Errorf("Finished()[%d] has seq %v, want %d", i, got, want)
		}
	}
}

// TestStartCtxSpanTree walks a three-deep StartCtx chain and checks the
// full tree is reconstructable from the ring: one shared trace id, each
// span's ParentID naming its parent's SpanID, the root's empty.
func TestStartCtxSpanTree(t *testing.T) {
	tr := NewTracer(8)
	root, ctx := tr.StartCtx(context.Background(), "server.request")
	step, sctx := tr.StartCtx(ctx, "core.step")
	chase, _ := tr.StartCtx(sctx, "chase")
	query, _ := tr.StartCtx(sctx, "query.eval") // sibling of chase
	query.End()
	chase.End()
	step.End()
	root.End()

	if root.TraceID() == "" || len(root.TraceID()) != 32 {
		t.Fatalf("root trace id %q, want 32 hex chars", root.TraceID())
	}
	byName := map[string]SpanRecord{}
	for _, rec := range tr.Finished() {
		if rec.TraceID != root.TraceID() {
			t.Errorf("span %s has trace %q, want %q", rec.Name, rec.TraceID, root.TraceID())
		}
		byName[rec.Name] = rec
	}
	if len(byName) != 4 {
		t.Fatalf("ring has %d distinct spans, want 4", len(byName))
	}
	if got := byName["server.request"].ParentID; got != "" {
		t.Errorf("root ParentID = %q, want empty", got)
	}
	if got, want := byName["core.step"].ParentID, byName["server.request"].SpanID; got != want {
		t.Errorf("core.step parent = %q, want root %q", got, want)
	}
	for _, leaf := range []string{"chase", "query.eval"} {
		if got, want := byName[leaf].ParentID, byName["core.step"].SpanID; got != want {
			t.Errorf("%s parent = %q, want core.step %q", leaf, got, want)
		}
	}
}

// TestStartCtxMintsPreservingOptions: a context whose TraceContext is
// invalid (no trace id) but carries a collector and the detail flag
// gets a fresh trace that keeps both.
func TestStartCtxMintsPreservingOptions(t *testing.T) {
	tr := NewTracer(8)
	col := NewSpanCollector(0)
	ctx := ContextWithTrace(context.Background(), TraceContext{}.WithCollector(col).WithDetail(true))
	sp, ctx2 := tr.StartCtx(ctx, "root")
	if sp.TraceID() == "" {
		t.Fatal("StartCtx on an invalid trace must mint one")
	}
	if !DetailFromContext(ctx2) {
		t.Error("detail flag lost across the mint")
	}
	child, _ := tr.StartCtx(ctx2, "child")
	child.End()
	sp.End()
	recs, dropped := col.Spans()
	if len(recs) != 2 || dropped != 0 {
		t.Fatalf("collector got %d spans (%d dropped), want 2 (0)", len(recs), dropped)
	}
	if recs[0].Name != "child" || recs[1].Name != "root" {
		t.Errorf("collector order wrong: %s, %s (want completion order child, root)", recs[0].Name, recs[1].Name)
	}
}

func TestSpanCollectorBound(t *testing.T) {
	tr := NewTracer(8)
	col := NewSpanCollector(2)
	tc := NewTraceContext().WithCollector(col)
	ctx := ContextWithTrace(context.Background(), tc)
	for i := 0; i < 5; i++ {
		sp, _ := tr.StartCtx(ctx, "op")
		sp.End()
	}
	recs, dropped := col.Spans()
	if len(recs) != 2 || dropped != 3 {
		t.Errorf("collector kept %d dropped %d, want 2 kept 3 dropped", len(recs), dropped)
	}
	if col.Len() != 2 {
		t.Errorf("Len = %d, want 2", col.Len())
	}
	if NewSpanCollector(0).max != DefaultCollectorCap {
		t.Errorf("zero cap must default to %d", DefaultCollectorCap)
	}
}

// TestTraceCtxNilSafety: every new trace-context API must be a no-op,
// never a panic, on nil receivers and nil contexts — the serving path
// runs them unconditionally with observability off.
func TestTraceCtxNilSafety(t *testing.T) {
	var tr *Tracer
	sp, ctx := tr.StartCtx(nil, "x")
	if sp != nil {
		t.Error("nil tracer StartCtx must return a nil span")
	}
	if ctx != nil {
		t.Error("nil tracer StartCtx must return ctx unchanged")
	}
	sp.Attr("k", 1).End()
	_ = sp.TraceID()
	_ = sp.SpanID()
	_ = sp.Dur()

	var o *Obs
	if sp, _ := o.StartCtx(context.Background(), "x"); sp != nil {
		t.Error("nil Obs StartCtx must return a nil span")
	}
	live := &Obs{} // metrics/tracer absent but Obs present
	if sp, _ := live.StartCtx(context.Background(), "x"); sp != nil {
		t.Error("Obs without a tracer must StartCtx to a nil span")
	}

	if tc, ok := TraceFromContext(nil); ok || tc.Valid() {
		t.Error("nil context must carry no trace")
	}
	if DetailFromContext(nil) || DetailFromContext(context.Background()) {
		t.Error("detail must default off")
	}
	if ctx := ContextWithTrace(nil, NewTraceContext()); ctx == nil {
		t.Error("ContextWithTrace(nil, …) must synthesize a context")
	}

	var col *SpanCollector
	col.add(SpanRecord{})
	if recs, dropped := col.Spans(); recs != nil || dropped != 0 {
		t.Error("nil collector Spans must be (nil, 0)")
	}
	if col.Len() != 0 {
		t.Error("nil collector Len must be 0")
	}

	// A real tracer under a collector-less trace still records.
	real := NewTracer(2)
	sp2, _ := real.StartCtx(context.Background(), "y")
	sp2.End()
	if real.Count() != 1 {
		t.Error("collector-less StartCtx span not recorded")
	}
}

// TestSpanRecordJSON pins the wire shape shared by the sink and
// /debug/slow.
func TestSpanRecordJSON(t *testing.T) {
	rec := SpanRecord{Name: "chase", TraceID: "t1", SpanID: "s1", ParentID: "p1", Attrs: []Attr{{Key: "n", Val: 2}}}
	b, err := rec.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name":"chase"`, `"trace_id":"t1"`, `"span_id":"s1"`, `"parent_id":"p1"`, `"dur_ns":0`, `"attrs":{"n":2}`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("record JSON missing %s: %s", want, b)
		}
	}
	// Roots omit parent_id entirely rather than emitting "".
	b, _ = SpanRecord{Name: "root"}.MarshalJSON()
	if strings.Contains(string(b), "parent_id") {
		t.Errorf("root record must omit parent_id: %s", b)
	}
}

// BenchmarkWriteText measures one /metrics scrape over a registry
// shaped like the live server's (a dozen counters, two histograms).
// The memoized bucket-bound labels keep per-scrape allocations flat in
// the number of buckets.
func BenchmarkWriteText(b *testing.B) {
	r := NewRegistry()
	for _, n := range []string{
		MChaseRuns, MChaseTuples, MQueryEvals, MQueryRowsScanned,
		MSrvRequests, MSrvAnswers, MSrvErrors, MSrvSlowSteps,
		MMuseGQuestions, MMuseDQuestions, MGenMappings, MQueryRefuted,
	} {
		r.Counter(n).Add(12345)
	}
	r.Gauge(GSrvSessionsLive).Set(42)
	h1 := r.Histogram(HSrvStepSeconds, SrvStepSecondsBounds...)
	h2 := r.Histogram(HQueryEvalSeconds, DefSecondsBounds...)
	for i := 0; i < 1000; i++ {
		h1.Observe(float64(i) * 1e-5)
		h2.Observe(float64(i) * 1e-6)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.WriteText(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStartCtxEnd measures one traced span open/close including
// the context plumbing — the per-touch cost every instrumented layer
// pays when tracing is on.
func BenchmarkStartCtxEnd(b *testing.B) {
	tr := NewTracer(DefaultRingSize)
	_, ctx := tr.StartCtx(context.Background(), "root")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp, _ := tr.StartCtx(ctx, "op")
		sp.End()
	}
}

// BenchmarkNilObsStartCtx pins the off cost: no tracer, no spans, no
// context mutation.
func BenchmarkNilObsStartCtx(b *testing.B) {
	var o *Obs
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp, _ := o.StartCtx(ctx, "op")
		sp.End()
	}
}
