package obs

import (
	"context"
	"sync"
)

// TraceContext identifies the trace a request belongs to and the span
// that is currently open, so child spans started further down the
// stack chain their ParentID correctly. It travels by value inside a
// context.Context; the zero value means "no trace".
type TraceContext struct {
	TraceID string
	SpanID  string // the innermost open span; parent for the next StartCtx
	col     *SpanCollector
	detail  bool
}

// Valid reports whether tc carries a trace.
func (tc TraceContext) Valid() bool { return tc.TraceID != "" }

type traceCtxKey struct{}

// ContextWithTrace returns a context carrying tc.
func ContextWithTrace(ctx context.Context, tc TraceContext) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// TraceFromContext extracts the trace carried by ctx (zero value and
// false when ctx is nil or carries none).
func TraceFromContext(ctx context.Context) (TraceContext, bool) {
	if ctx == nil {
		return TraceContext{}, false
	}
	tc, ok := ctx.Value(traceCtxKey{}).(TraceContext)
	return tc, ok
}

// NewTraceContext mints a root trace context with a fresh trace id
// and no open span: the first StartCtx under it becomes the root span.
func NewTraceContext() TraceContext {
	return TraceContext{TraceID: NewTraceID()}
}

// WithCollector attaches col to the trace so every span finished under
// it is also delivered to col (for flight recording). A nil col
// detaches.
func (tc TraceContext) WithCollector(col *SpanCollector) TraceContext {
	tc.col = col
	return tc
}

// WithDetail marks the trace as wanting expensive diagnostic
// attributes (the explain attribute of retrieval spans). Off by default.
func (tc TraceContext) WithDetail(on bool) TraceContext {
	tc.detail = on
	return tc
}

// DetailFromContext reports whether the trace carried by ctx asked for
// expensive diagnostic attributes. False on nil/traceless contexts.
func DetailFromContext(ctx context.Context) bool {
	tc, ok := TraceFromContext(ctx)
	return ok && tc.detail
}

// StartCtx opens a span as a child of the trace carried by ctx and
// returns the span plus a derived context under which the span is the
// parent of subsequent StartCtx calls. When ctx carries no trace a
// fresh one is minted, so standalone callers (cmd/muse, tests) still
// get correlated span trees. A nil Tracer returns (nil, ctx)
// unchanged — tracing off costs one branch and nothing else.
func (t *Tracer) StartCtx(ctx context.Context, name string) (*Span, context.Context) {
	if t == nil {
		return nil, ctx
	}
	if ctx == nil {
		ctx = context.Background()
	}
	tc, ok := TraceFromContext(ctx)
	if !ok || !tc.Valid() {
		tc = TraceContext{TraceID: NewTraceID(), col: tc.col, detail: tc.detail}
	}
	sp := t.Start(name)
	sp.traceID = tc.TraceID
	sp.parentID = tc.SpanID
	sp.col = tc.col
	tc.SpanID = sp.spanID
	return sp, context.WithValue(ctx, traceCtxKey{}, tc)
}

// SpanCollector accumulates every span finished under one trace, up
// to a bound, so a request's complete tree is available at the moment
// the request ends even if the tracer's shared ring has since wrapped.
// Safe for concurrent use; the nil collector is a no-op.
type SpanCollector struct {
	mu      sync.Mutex
	spans   []SpanRecord
	max     int
	dropped int
}

// DefaultCollectorCap bounds spans kept per request trace. A dialog
// step runs a handful of chases and a few dozen probe queries; 512
// leaves generous headroom while capping worst-case capture memory.
const DefaultCollectorCap = 512

// NewSpanCollector returns a collector keeping at most max spans
// (DefaultCollectorCap when max <= 0); further spans are counted as
// dropped.
func NewSpanCollector(max int) *SpanCollector {
	if max <= 0 {
		max = DefaultCollectorCap
	}
	return &SpanCollector{max: max}
}

func (c *SpanCollector) add(rec SpanRecord) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if len(c.spans) < c.max {
		c.spans = append(c.spans, rec)
	} else {
		c.dropped++
	}
	c.mu.Unlock()
}

// Spans returns a copy of the collected records in completion order,
// plus how many were dropped past the bound. Nil collector: (nil, 0).
func (c *SpanCollector) Spans() ([]SpanRecord, int) {
	if c == nil {
		return nil, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]SpanRecord, len(c.spans))
	copy(out, c.spans)
	return out, c.dropped
}

// Len returns the number of collected spans (0 on nil).
func (c *SpanCollector) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.spans)
}
