// The instrumentation-overhead guard: with observability disabled
// (nil obs), the chase, the warm retrieval path, the serving wire path
// and whole served dialogs must allocate no more per operation than
// the recorded baselines — the nil-safe hooks must stay one branch,
// not a hidden cost. The guard re-runs the baseline-tracked benchmarks
// via testing.Benchmark and compares allocs/op (exact, unlike ns/op)
// against the checked-in JSON. Run it with
//
//	MUSE_BENCH_GUARD=1 go test -run TestBenchGuard .
//
// (or `make bench-guard`, which runs it at GOMAXPROCS 1 and 4); unset,
// the test skips so the ordinary suite stays fast. No guarded path
// reads GOMAXPROCS, so the verdict does not depend on the core count.
package muse_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"muse/internal/chase"
	"muse/internal/core"
	"muse/internal/designer"
	"muse/internal/mapping"
	"muse/internal/scenarios"
	"muse/internal/server"
)

type baselineFile struct {
	Benchmarks map[string]struct {
		AllocsPerOp int64 `json:"allocs_per_op"`
	} `json:"benchmarks"`
}

// instanceBaselineFile mirrors BENCH_instance_baseline.json: the
// instance-layer memory pass snapshot, with pre (map-tuple, no
// interning) and post (compact+interned) sections. The guard checks
// against post.
type instanceBaselineFile struct {
	Pre  instanceBaselineSection `json:"pre"`
	Post instanceBaselineSection `json:"post"`
}

type instanceBaselineSection struct {
	Benchmarks map[string]struct {
		BytesPerOp int64 `json:"bytes_per_op"`
	} `json:"benchmarks"`
}

// serverBaselineFile mirrors BENCH_server_baseline.json: the serving
// wire-path snapshot with pre/post sections per benchmark. The guard
// checks against post_pass.
type serverBaselineFile struct {
	Benchmarks map[string]struct {
		PostPass struct {
			AllocsPerOp int64 `json:"allocs_per_op"`
		} `json:"post_pass"`
	} `json:"benchmarks"`
}

// serverAllocHeadroom is the slack multiplier for the serving
// wire-path allocs/op guard. The request-correlation middleware runs
// on every request even with observability disabled — a minted
// request id, the status-capturing writer, the body cap — which is a
// handful of fixed allocations the post-pass baseline predates; the
// guard bounds that overhead instead of demanding equality.
const serverAllocHeadroom = 1.3

// bytesHeadroom is the slack multiplier for the bytes/op guard.
// Unlike allocs/op, bytes/op wobbles a few percent run-to-run (map
// bucket growth and slice doubling land differently across b.N), so
// the guard flags regressions past 1.3x the recorded post baseline
// rather than demanding byte-exact repeats.
const bytesHeadroom = 1.3

func loadBaseline(t *testing.T, path string) baselineFile {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f baselineFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return f
}

// guardMappings is scenarioMappings without the *testing.B plumbing.
func guardMappings(s *scenarios.Scenario) ([]*mapping.Mapping, error) {
	set, err := s.Generate()
	if err != nil {
		return nil, err
	}
	var ms []*mapping.Mapping
	for _, m := range set.Mappings {
		if m.Ambiguous() {
			m = m.Interpretation(make([]int, len(m.OrGroups)))
		}
		ms = append(ms, m)
	}
	return ms, nil
}

// guardRetrievalMapping is retrievalMapping without the *testing.B
// plumbing; it returns nil when the scenario has no suitable mapping.
func guardRetrievalMapping(s *scenarios.Scenario) (*mapping.Mapping, error) {
	set, err := s.Generate()
	if err != nil {
		return nil, err
	}
	var fallback *mapping.Mapping
	for _, m := range set.Mappings {
		if m.Ambiguous() || len(m.SKs) == 0 {
			continue
		}
		if len(m.For) >= 2 {
			return m, nil
		}
		if fallback == nil {
			fallback = m
		}
	}
	return fallback, nil
}

func TestBenchGuard(t *testing.T) {
	if os.Getenv("MUSE_BENCH_GUARD") == "" {
		t.Skip("set MUSE_BENCH_GUARD=1 to run the instrumentation-overhead guard")
	}
	check := func(name string, got, want int64) {
		if want == 0 {
			t.Errorf("%s: no baseline entry", name)
			return
		}
		if got > want {
			t.Errorf("%s: %d allocs/op with obs disabled exceeds the seed baseline %d", name, got, want)
		} else {
			fmt.Printf("bench-guard %-40s %8d allocs/op (baseline %d)\n", name, got, want)
		}
	}

	checkBytes := func(name string, got, want int64) {
		if want == 0 {
			t.Errorf("%s: no bytes_per_op baseline entry", name)
			return
		}
		limit := int64(float64(want) * bytesHeadroom)
		if got > limit {
			t.Errorf("%s: %d bytes/op exceeds the instance-baseline %d (+%d%% headroom = %d)",
				name, got, want, int(bytesHeadroom*100)-100, limit)
		} else {
			fmt.Printf("bench-guard %-40s %8d bytes/op  (baseline %d, limit %d)\n", name, got, want, limit)
		}
	}

	chaseBase := loadBaseline(t, "BENCH_baseline.json")
	instData, err := os.ReadFile("BENCH_instance_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var instBase instanceBaselineFile
	if err := json.Unmarshal(instData, &instBase); err != nil {
		t.Fatalf("BENCH_instance_baseline.json: %v", err)
	}
	for _, s := range scenarios.All() {
		ms, err := guardMappings(s)
		if err != nil {
			t.Fatal(err)
		}
		in := s.NewInstance(0.02)
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := chase.Chase(in, ms...); err != nil {
					b.Fatal(err)
				}
			}
		})
		name := "BenchmarkChaseScenario/" + s.Name
		check(name, r.AllocsPerOp(), chaseBase.Benchmarks[name].AllocsPerOp)
		checkBytes(name, r.AllocedBytesPerOp(), instBase.Post.Benchmarks[name].BytesPerOp)
	}

	retrBase := loadBaseline(t, "BENCH_retrieval_baseline.json")
	for _, s := range scenarios.All() {
		m, err := guardRetrievalMapping(s)
		if err != nil {
			t.Fatal(err)
		}
		if m == nil {
			continue
		}
		oracle, err := designer.StrategyOracle(designer.G1, m)
		if err != nil {
			t.Fatal(err)
		}
		in := s.NewInstance(0.1)
		// One wizard across iterations: the warm (index-reusing) half of
		// the baseline pair. The wizard's Ranker is left nil, and the
		// baseline predates the evidence ranker entirely, so the exact
		// (no-headroom) allocs/op comparison below doubles as the
		// ranker-disabled guard: a disabled ranker must stay one nil
		// check per question, adding zero allocations to the probe path.
		w := core.NewGroupingWizard(s.Src, in)
		w.Timeout = 100 * time.Millisecond
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := w.DesignMapping(m, oracle); err != nil {
					b.Fatal(err)
				}
			}
		})
		name := "BenchmarkProbeRetrieval/" + s.Name
		check(name, r.AllocsPerOp(), retrBase.Benchmarks[name].AllocsPerOp)
	}

	// Serving wire path: one GET of an already-computed pending
	// question with observability off entirely (nil Obs — no tracer,
	// no span collector, no metrics), guarded against the server
	// baseline's post-pass allocs/op with serverAllocHeadroom slack.
	srvData, err := os.ReadFile("BENCH_server_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var srvBase serverBaselineFile
	if err := json.Unmarshal(srvData, &srvBase); err != nil {
		t.Fatalf("BENCH_server_baseline.json: %v", err)
	}
	checkServer := func(name string, r testing.BenchmarkResult) {
		want := srvBase.Benchmarks[name].PostPass.AllocsPerOp
		if want == 0 {
			t.Fatalf("%s: no post_pass baseline entry", name)
		}
		limit := int64(float64(want) * serverAllocHeadroom)
		if got := r.AllocsPerOp(); got > limit {
			t.Errorf("%s(nil obs): %d allocs/op exceeds baseline %d + headroom (limit %d)", name, got, want, limit)
		} else {
			fmt.Printf("bench-guard %-40s %8d allocs/op (baseline %d, limit %d)\n", name+"(nil obs)", got, want, limit)
		}
	}
	mg := server.NewManager(server.Builtin(), nil)
	mg.Store = server.NewMemStore() // durability on, like a deployed server
	defer mg.Close()
	h := server.New(mg)
	token := guardCreate(t, h)
	checkServer("BenchmarkServerStep", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if code := guardServe(h, "GET", "/v1/sessions/"+token, ""); code != http.StatusOK {
				b.Fatalf("question: status %d", code)
			}
		}
	}))
	guardServe(h, "DELETE", "/v1/sessions/"+token, "")

	// Whole dialogs: BenchmarkServerDialog's loop, so every step's wizard
	// work (probe tableau, small chases, homo, constraint checks) is
	// guarded too. Each op is one step-producing request: the create or
	// one answer of the walkthrough script.
	checkServer("BenchmarkServerDialog", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		token, k := "", 0
		for i := 0; i < b.N; i++ {
			if token == "" {
				token, k = guardCreate(b, h), 0
				continue
			}
			if code := guardServe(h, "POST", "/v1/sessions/"+token+"/answer",
				fmt.Sprintf(`{"scenario": %d}`, guardFig1Script[k])); code != http.StatusOK {
				b.Fatalf("answer %d: status %d", k, code)
			}
			if k++; k == len(guardFig1Script) {
				guardServe(h, "DELETE", "/v1/sessions/"+token, "")
				token = ""
			}
		}
		b.StopTimer()
		if token != "" {
			guardServe(h, "DELETE", "/v1/sessions/"+token, "")
		}
	}))
}

// guardFig1Script is the walkthrough answer sequence for the Fig. 1
// scenario, BenchmarkServerDialog's script: an 11-question Muse-G
// dialog landing on SKProjects(c.cname).
var guardFig1Script = []int{2, 1, 2, 2, 2, 2, 1, 2, 2, 2, 2}

// guardCreate starts a fig1 session and returns its token.
func guardCreate(tb testing.TB, h http.Handler) string {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions", strings.NewReader(`{"scenario": "fig1"}`)))
	if rec.Code != http.StatusCreated {
		tb.Fatalf("create: %d %s", rec.Code, rec.Body.String())
	}
	var created struct {
		Token string `json:"token"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
		tb.Fatal(err)
	}
	return created.Token
}

// guardServe serves one request, with no body when body is empty,
// discarding the response body, and returns the status.
func guardServe(h http.Handler, method, path, body string) int {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	w := &discardRW{h: make(http.Header, 2)}
	h.ServeHTTP(w, httptest.NewRequest(method, path, rd))
	return w.code
}

// discardRW discards the response body so the wire-path guard measures
// the server's allocations, not a recorder's buffer growth.
type discardRW struct {
	h    http.Header
	code int
}

func (w *discardRW) Header() http.Header         { return w.h }
func (w *discardRW) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardRW) WriteHeader(c int)           { w.code = c }
