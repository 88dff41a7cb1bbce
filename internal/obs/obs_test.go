package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("c_total") != c {
		t.Error("Counter must return the same handle for one name")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}
	h := r.Histogram("h_seconds", 0.001, 1)
	h.Observe(0.0005) // le 0.001
	h.Observe(0.5)    // le 1
	h.Observe(2)      // +Inf
	snap := r.Snapshot()
	var hm *Metric
	for i := range snap {
		if snap[i].Name == "h_seconds" {
			hm = &snap[i]
		}
	}
	if hm == nil {
		t.Fatal("histogram missing from snapshot")
	}
	if hm.Count != 3 || math.Abs(hm.Sum-2.5005) > 1e-9 {
		t.Errorf("histogram count/sum = %d/%g, want 3/2.5005", hm.Count, hm.Sum)
	}
	want := []int64{1, 1, 1}
	for i, n := range want {
		if hm.Buckets[i] != n {
			t.Errorf("bucket %d = %d, want %d", i, hm.Buckets[i], n)
		}
	}
}

// TestQuantile checks the interpolated estimator against
// distributions whose quantiles are known exactly.
func TestQuantile(t *testing.T) {
	// Uniform over (0,1]: bucket edges at quartiles make the linear
	// interpolation exact at every probed quantile (250 observations
	// per bucket; le bounds are inclusive).
	r := NewRegistry()
	u := r.Histogram("u", 0.25, 0.5, 0.75, 1.0)
	for i := 1; i <= 1000; i++ {
		u.Observe(float64(i) / 1000)
	}
	for _, tc := range []struct{ p, want float64 }{
		{0.50, 0.50}, {0.95, 0.95}, {0.99, 0.99}, {0.25, 0.25}, {1.0, 1.0},
	} {
		if got := u.Quantile(tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("uniform Quantile(%g) = %g, want %g", tc.p, got, tc.want)
		}
	}

	// All mass in the first bucket interpolates up from zero.
	lo := r.Histogram("lo", 1.0, 2.0)
	for i := 0; i < 4; i++ {
		lo.Observe(0.1)
	}
	if got := lo.Quantile(0.5); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("first-bucket Quantile(0.5) = %g, want 0.5", got)
	}

	// Mass beyond the last finite bound is clamped to it.
	hi := r.Histogram("hi", 1.0, 2.0)
	hi.Observe(100)
	if got := hi.Quantile(0.99); got != 2.0 {
		t.Errorf("overflow Quantile(0.99) = %g, want the top bound 2", got)
	}

	// Empty histogram and the nil Histogram report NaN.
	if got := r.Histogram("empty", 1).Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("empty Quantile = %g, want NaN", got)
	}
	var nilH *Histogram
	if got := nilH.Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("nil Quantile = %g, want NaN", got)
	}

	// Malformed inputs and non-histogram metrics report NaN.
	if got := QuantileFromBuckets([]float64{1}, []int64{1}, 0.5); !math.IsNaN(got) {
		t.Errorf("mismatched buckets Quantile = %g, want NaN", got)
	}
	if got := (Metric{Kind: KindCounter, Value: 3}).Quantile(0.5); !math.IsNaN(got) {
		t.Errorf("counter Metric.Quantile = %g, want NaN", got)
	}

	// The snapshot-level estimator agrees with the live histogram.
	for _, m := range r.Snapshot() {
		if m.Name == "u" {
			if got := m.Quantile(0.95); math.Abs(got-0.95) > 1e-9 {
				t.Errorf("snapshot Quantile(0.95) = %g, want 0.95", got)
			}
		}
	}
}

// TestQuantileSkewed pins the estimator on a known non-uniform
// distribution: 90 observations in (0,1], 10 in (1,10].
func TestQuantileSkewed(t *testing.T) {
	bounds := []float64{1, 10}
	buckets := []int64{90, 10, 0}
	// p50: rank 50 of 100 lands in the first bucket at 50/90 of it.
	if got, want := QuantileFromBuckets(bounds, buckets, 0.50), 50.0/90.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("skewed p50 = %g, want %g", got, want)
	}
	// p95: rank 95 lands in (1,10] at (95-90)/10 of the way.
	if got, want := QuantileFromBuckets(bounds, buckets, 0.95), 1+9*0.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("skewed p95 = %g, want %g", got, want)
	}
}

func TestGetAndSnapshotSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(2)
	r.Gauge("a").Set(1)
	if r.Get("b") != 2 || r.Get("a") != 1 || r.Get("missing") != 0 {
		t.Errorf("Get values wrong: b=%d a=%d missing=%d", r.Get("b"), r.Get("a"), r.Get("missing"))
	}
	snap := r.Snapshot()
	if len(snap) != 2 || snap[0].Name != "a" || snap[1].Name != "b" {
		t.Errorf("snapshot not sorted by name: %v", snap)
	}
}

func TestWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("muse_x_total").Add(3)
	r.Gauge("muse_g").Set(-1)
	r.Histogram("muse_h", 1, 10).Observe(5)
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE muse_g gauge\nmuse_g -1\n",
		"# TYPE muse_x_total counter\nmuse_x_total 3\n",
		"# TYPE muse_h histogram\n",
		`muse_h_bucket{le="1"} 0`,
		`muse_h_bucket{le="10"} 1`,
		`muse_h_bucket{le="+Inf"} 1`,
		"muse_h_sum 5\n",
		"muse_h_count 1\n",
		// Estimated quantiles ride along as a comment line.
		"# muse_h p50=",
		" p95=",
		" p99=",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

// TestWriteFile: the file holds exactly WriteText's bytes, and a path
// that cannot be created is an error.
func TestWriteFile(t *testing.T) {
	r := NewRegistry()
	r.Counter("muse_x_total").Add(3)
	r.Histogram("muse_h", 1, 10).Observe(5)
	var want bytes.Buffer
	if err := r.WriteText(&want); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "metrics.txt")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("WriteFile wrote\n%s\nwant\n%s", got, want.Bytes())
	}
	if err := r.WriteFile(filepath.Join(t.TempDir(), "missing", "metrics.txt")); err == nil {
		t.Error("WriteFile into a missing directory reported no error")
	}
}

func TestTracerRingAndSink(t *testing.T) {
	var sink bytes.Buffer
	tr := NewTracer(2)
	tr.SetSink(&sink)
	for i := 0; i < 3; i++ {
		sp := tr.Start("op")
		sp.Attr("i", i)
		sp.End()
	}
	if got := tr.Count(); got != 3 {
		t.Errorf("Count = %d, want 3", got)
	}
	fin := tr.Finished()
	if len(fin) != 2 {
		t.Fatalf("ring holds %d spans, want 2 (bounded)", len(fin))
	}
	// Oldest-first: spans 1 and 2 survive (0 was overwritten).
	if fin[0].Attrs[0].Val != 1 || fin[1].Attrs[0].Val != 2 {
		t.Errorf("ring order wrong: %v", fin)
	}
	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("sink got %d lines, want 3", len(lines))
	}
	var obj struct {
		Name  string         `json:"name"`
		DurNS int64          `json:"dur_ns"`
		Attrs map[string]any `json:"attrs"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &obj); err != nil {
		t.Fatalf("sink line not JSON: %v\n%s", err, lines[0])
	}
	if obj.Name != "op" || obj.DurNS < 0 || obj.Attrs["i"] != float64(0) {
		t.Errorf("sink line wrong: %+v", obj)
	}
}

// TestNilSafety calls every exported method through nil receivers; any
// panic fails the test. This is the contract the instrumented hot
// paths rely on.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Counter("x").Add(2)
	_ = r.Counter("x").Value()
	r.Gauge("x").Set(1)
	r.Gauge("x").Add(1)
	_ = r.Gauge("x").Value()
	r.Histogram("x").Observe(1)
	_ = r.Get("x")
	if r.Snapshot() != nil {
		t.Error("nil registry Snapshot should be nil")
	}
	if err := r.WriteText(&bytes.Buffer{}); err != nil {
		t.Error(err)
	}

	var tr *Tracer
	tr.SetSink(&bytes.Buffer{})
	sp := tr.Start("x")
	sp.Attr("k", "v").End()
	_ = sp.Dur()
	_ = tr.Count()
	_ = tr.Finished()

	var o *Obs
	o.Counter("x").Inc()
	o.Gauge("x").Set(1)
	o.Histogram("x").Observe(1)
	o.Start("x").Attr("k", 1).End()
	if o.Registry() != nil {
		t.Error("nil Obs Registry should be nil")
	}
}

// TestConcurrency hammers one registry and one tracer from many
// goroutines; run under -race.
func TestConcurrency(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(16)
	var sink bytes.Buffer
	tr.SetSink(&sink)
	const workers, rounds = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				r.Counter("c_total").Inc()
				r.Gauge("g").Add(1)
				r.Histogram("h").Observe(float64(i) / rounds)
				sp := tr.Start("w")
				sp.Attr("i", i)
				sp.End()
				if i%32 == 0 {
					_ = r.Snapshot()
					_ = tr.Finished()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Get("c_total"); got != workers*rounds {
		t.Errorf("counter = %d, want %d", got, workers*rounds)
	}
	if got := tr.Count(); got != workers*rounds {
		t.Errorf("span count = %d, want %d", got, workers*rounds)
	}
}
