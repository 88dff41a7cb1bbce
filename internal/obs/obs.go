package obs

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The nil Counter
// discards all updates.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on the nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. The nil Gauge discards
// all updates.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current gauge value (0 on the nil Gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefSecondsBounds is the default histogram bucketing: exponential
// upper bounds in seconds, one microsecond to ten seconds.
var DefSecondsBounds = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10}

// Histogram accumulates observations into fixed buckets (cumulative
// counts are computed at snapshot time). The nil Histogram discards
// all observations.
type Histogram struct {
	bounds    []float64 // ascending upper bounds; +Inf is implicit
	boundStrs []string  // formatBound(bounds[i]), memoized once at creation
	buckets   []atomic.Int64
	count     atomic.Int64
	sumBits   atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Quantile estimates the p-quantile (p in [0,1]) of the observed
// distribution by linear interpolation inside the bucket holding the
// target rank — the same estimate Prometheus's histogram_quantile
// computes server-side. The lowest bucket interpolates up from zero; a
// rank landing in the +Inf overflow bucket reports the highest finite
// bound (the estimate cannot exceed the bucketing). Returns NaN on an
// empty histogram and on the nil Histogram.
func (h *Histogram) Quantile(p float64) float64 {
	if h == nil {
		return math.NaN()
	}
	counts := make([]int64, len(h.buckets))
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
	}
	return QuantileFromBuckets(h.bounds, counts, p)
}

// QuantileFromBuckets estimates the p-quantile of a bucketed
// distribution: bounds are ascending finite upper bounds, buckets are
// the per-bucket (non-cumulative) counts with one final +Inf overflow
// bucket (len(buckets) == len(bounds)+1). This is the computation
// behind Histogram.Quantile, exported so clients that scrape
// `_bucket{le=...}` lines off /metrics (cmd/museload) estimate
// quantiles identically to the serving process.
func QuantileFromBuckets(bounds []float64, buckets []int64, p float64) float64 {
	if len(bounds) == 0 || len(buckets) != len(bounds)+1 {
		return math.NaN()
	}
	var total int64
	for _, c := range buckets {
		total += c
	}
	if total == 0 || math.IsNaN(p) {
		return math.NaN()
	}
	p = math.Min(math.Max(p, 0), 1)
	rank := p * float64(total)
	var cum int64
	for i, c := range buckets {
		if float64(cum+c) >= rank && c > 0 {
			if i == len(bounds) {
				return bounds[len(bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			return lo + (bounds[i]-lo)*((rank-float64(cum))/float64(c))
		}
		cum += c
	}
	return bounds[len(bounds)-1]
}

// Kind distinguishes metric types in a Snapshot.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Metric is one entry of a Snapshot.
type Metric struct {
	Name string
	Kind Kind
	// Value is the counter/gauge value.
	Value int64
	// Count, Sum and Buckets describe a histogram; Buckets aligns with
	// Bounds and holds per-bucket (non-cumulative) counts, with one
	// final overflow bucket (+Inf).
	Count   int64
	Sum     float64
	Bounds  []float64
	Buckets []int64
	// BoundLabels are the pre-formatted `le` label values for Bounds
	// (same length), memoized once when the histogram is created.
	BoundLabels []string
}

// Quantile estimates the p-quantile of a histogram Metric (NaN for
// counter/gauge entries and empty histograms). See Histogram.Quantile.
func (m Metric) Quantile(p float64) float64 {
	if m.Kind != KindHistogram {
		return math.NaN()
	}
	return QuantileFromBuckets(m.Bounds, m.Buckets, p)
}

// Registry is a process-local set of named metrics. All methods are
// safe for concurrent use, and all methods on the nil Registry are
// no-ops returning nil handles (which are themselves no-ops), so a
// disabled registry costs one branch per metric touch.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a no-op handle) on the nil Registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use with
// the given bucket upper bounds (DefSecondsBounds when none are
// given). Bounds are fixed by the first caller.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		bs := bounds
		if len(bs) == 0 {
			bs = DefSecondsBounds
		}
		bs = append([]float64(nil), bs...)
		sort.Float64s(bs)
		// Bucket-bound label strings never change after creation, so
		// format them once here instead of on every WriteText scrape.
		strs := make([]string, len(bs))
		for i, b := range bs {
			strs[i] = formatBound(b)
		}
		h = &Histogram{bounds: bs, boundStrs: strs, buckets: make([]atomic.Int64, len(bs)+1)}
		r.hists[name] = h
	}
	return h
}

// Get returns the value of the named counter or gauge (counters win on
// a name clash), or 0 when the metric does not exist. Convenience for
// tests and snapshot assertions.
func (r *Registry) Get(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	c, g := r.counters[name], r.gauges[name]
	r.mu.Unlock()
	if c != nil {
		return c.Value()
	}
	return g.Value()
}

// Snapshot returns every metric, sorted by name. Counter and gauge
// values are individually atomic; the snapshot as a whole is not a
// consistent cut across metrics (concurrent updates may land between
// reads), which is fine for the monotonic counters it reports.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		out = append(out, Metric{Name: name, Kind: KindCounter, Value: c.Value()})
	}
	for name, g := range r.gauges {
		out = append(out, Metric{Name: name, Kind: KindGauge, Value: g.Value()})
	}
	for name, h := range r.hists {
		m := Metric{
			Name: name, Kind: KindHistogram,
			Count:       h.count.Load(),
			Sum:         math.Float64frombits(h.sumBits.Load()),
			Bounds:      h.bounds,
			BoundLabels: h.boundStrs,
			Buckets:     make([]int64, len(h.buckets)),
		}
		for i := range h.buckets {
			m.Buckets[i] = h.buckets[i].Load()
		}
		out = append(out, m)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteText dumps the registry in the Prometheus text exposition
// style: a `# TYPE` line per metric, cumulative `_bucket{le="..."}`
// lines plus `_sum`/`_count` for histograms. A nil Registry writes
// nothing.
func (r *Registry) WriteText(w io.Writer) error {
	lastType := ""
	for _, m := range r.Snapshot() {
		// Labeled series (muse_x_total{scenario="a"}) share one TYPE
		// line under their base name; the snapshot is name-sorted so
		// all label values of one base name are adjacent.
		base := BaseName(m.Name)
		switch m.Kind {
		case KindCounter, KindGauge:
			if base != lastType {
				if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, m.Kind); err != nil {
					return err
				}
				lastType = base
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", m.Name, m.Value); err != nil {
				return err
			}
		case KindHistogram:
			if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", base); err != nil {
				return err
			}
			lastType = base
			cum := int64(0)
			for i := range m.Bounds {
				cum += m.Buckets[i]
				lbl := formatBound(m.Bounds[i])
				if len(m.BoundLabels) == len(m.Bounds) {
					lbl = m.BoundLabels[i]
				}
				if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", m.Name, lbl, cum); err != nil {
					return err
				}
			}
			cum += m.Buckets[len(m.Buckets)-1]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n",
				m.Name, cum, m.Name, m.Sum, m.Name, m.Count); err != nil {
				return err
			}
			// Estimated quantiles as a comment line (Prometheus parsers
			// skip comments), so operators read latency off /metrics
			// without post-processing.
			if m.Count > 0 {
				if _, err := fmt.Fprintf(w, "# %s p50=%g p95=%g p99=%g\n",
					m.Name, m.Quantile(0.50), m.Quantile(0.95), m.Quantile(0.99)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// WriteFile writes the registry as WriteText does to the file at
// path, or to stdout when path is "-". A failed close is reported.
func (r *Registry) WriteFile(path string) error {
	if path == "-" {
		return r.WriteText(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteText(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func formatBound(b float64) string {
	return fmt.Sprintf("%g", b)
}

// BaseName strips a `{label="value"}` suffix off a metric name, so
// labeled series map back to the family they belong to.
func BaseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// LabeledName composes a metric name carrying one label pair, e.g.
// LabeledName("muse_x_total", "scenario", "fig1") →
// `muse_x_total{scenario="fig1"}`. The registry treats the result as
// an opaque name; WriteText groups it under the base name's TYPE line.
func LabeledName(base, label, value string) string {
	return base + "{" + label + "=" + strconv.Quote(value) + "}"
}

// Obs bundles a Registry and a Tracer; the wizards, the chase engine
// and the query engine each accept one. The nil *Obs (and the zero
// value) disable all instrumentation at the cost of one branch per
// touch point.
type Obs struct {
	Reg *Registry
	Tr  *Tracer
}

// New returns an Obs with a fresh registry and a tracer with the
// default ring capacity.
func New() *Obs {
	return &Obs{Reg: NewRegistry(), Tr: NewTracer(DefaultRingSize)}
}

// Registry returns the bundled registry (nil on the nil Obs).
func (o *Obs) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.Reg
}

// Counter returns the named counter from the bundled registry.
func (o *Obs) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	return o.Reg.Counter(name)
}

// Gauge returns the named gauge from the bundled registry.
func (o *Obs) Gauge(name string) *Gauge {
	if o == nil {
		return nil
	}
	return o.Reg.Gauge(name)
}

// Histogram returns the named histogram from the bundled registry.
func (o *Obs) Histogram(name string, bounds ...float64) *Histogram {
	if o == nil {
		return nil
	}
	return o.Reg.Histogram(name, bounds...)
}

// Start opens a span on the bundled tracer (a nil no-op span on the
// nil Obs).
func (o *Obs) Start(name string) *Span {
	if o == nil {
		return nil
	}
	return o.Tr.Start(name)
}

// StartCtx opens a span on the bundled tracer as a child of the trace
// carried by ctx (see Tracer.StartCtx). The nil Obs returns (nil, ctx).
func (o *Obs) StartCtx(ctx context.Context, name string) (*Span, context.Context) {
	if o == nil {
		return nil, ctx
	}
	return o.Tr.StartCtx(ctx, name)
}
