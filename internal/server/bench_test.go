package server_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"muse/internal/obs"
	"muse/internal/server"
)

// fig1Script is the walkthrough answer sequence for the Fig. 1
// scenario with the Companies(cid) key: an 11-question Muse-G dialog
// landing on SKProjects(c.cname).
var fig1Script = []int{2, 1, 2, 2, 2, 2, 1, 2, 2, 2, 2}

// nullRW is a ResponseWriter that discards the body, counting its
// bytes, so the benchmarks measure the server's own allocations, not a
// recorder's buffer growth.
type nullRW struct {
	h    http.Header
	code int
	n    int
}

func (w *nullRW) Header() http.Header         { return w.h }
func (w *nullRW) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }
func (w *nullRW) WriteHeader(c int)           { w.code = c }

// benchRequest serves one request and returns its status and the
// length of its body.
func benchRequest(b *testing.B, h http.Handler, method, path, body string) (int, int) {
	var rd *strings.Reader
	if body != "" {
		rd = strings.NewReader(body)
	} else {
		rd = strings.NewReader("")
	}
	req := httptest.NewRequest(method, path, rd)
	w := &nullRW{h: make(http.Header, 2)}
	h.ServeHTTP(w, req)
	return w.code, w.n
}

// createSession starts a fig1 session and returns its token and the
// length of the body (this one request needs the body, so it uses a
// recorder).
func createSession(b *testing.B, h http.Handler) (string, int) {
	req := httptest.NewRequest("POST", "/v1/sessions", strings.NewReader(`{"scenario": "fig1"}`))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusCreated {
		b.Fatalf("create: %d %s", w.Code, w.Body.String())
	}
	var resp struct {
		Token string `json:"token"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		b.Fatal(err)
	}
	return resp.Token, w.Body.Len()
}

// BenchmarkServerDialog drives complete scripted fig1 dialogs through
// the full HTTP stack (mux, manager, Stepper, wizard, render, JSON)
// and reports per-step cost: each op is one step-producing request
// (the create or one answer), so it includes the wizard work of
// computing each question. body_B/op is the mean step body size. It
// runs with metrics and tracing on (obs.New()), so it does not measure
// what BENCH_server_baseline.json records: those rows are nil-obs
// figures, which TestBenchGuard's BenchmarkServerDialog loop measures
// (bench_guard_test.go, `make bench-guard`).
func BenchmarkServerDialog(b *testing.B) {
	mg := server.NewManager(server.Builtin(), obs.New())
	mg.MaxSessions = 16
	mg.Store = server.NewMemStore() // durability on, like a deployed server
	defer mg.Close()
	h := server.New(mg)
	// Warm the shared index store outside the timed region.
	tok, _ := createSession(b, h)
	benchRequest(b, h, "DELETE", "/v1/sessions/"+tok, "")

	b.ReportAllocs()
	b.ResetTimer()
	token, k, bodyBytes := "", 0, 0
	for i := 0; i < b.N; i++ {
		if token == "" {
			var n int
			token, n = createSession(b, h)
			k, bodyBytes = 0, bodyBytes+n
			continue
		}
		code, n := benchRequest(b, h, "POST", "/v1/sessions/"+token+"/answer",
			fmt.Sprintf(`{"scenario": %d}`, fig1Script[k]))
		if code != http.StatusOK {
			b.Fatalf("answer %d: status %d", k, code)
		}
		bodyBytes += n
		if k++; k == len(fig1Script) {
			benchRequest(b, h, "DELETE", "/v1/sessions/"+token, "")
			token = ""
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(bodyBytes)/float64(b.N), "body_B/op")
	if token != "" {
		benchRequest(b, h, "DELETE", "/v1/sessions/"+token, "")
	}
}

// BenchmarkServerStep measures the wire path proper: serving one step
// whose question is already computed (a GET of the pending question) —
// manager token lookup, step rendering, and JSON encoding, with zero
// wizard work. This is the wire-path acceptance benchmark of the
// museload PR (the wizard compute inside BenchmarkServerDialog has its
// own benchmarks and baselines from the chase/retrieval passes);
// body_B/op is the step's body size. It runs with metrics and tracing
// on (obs.New()), so it does not measure what
// BENCH_server_baseline.json records: those rows are nil-obs figures,
// which TestBenchGuard's BenchmarkServerStep loop measures
// (bench_guard_test.go, `make bench-guard`).
func BenchmarkServerStep(b *testing.B) {
	mg := server.NewManager(server.Builtin(), obs.New())
	mg.Store = server.NewMemStore() // durability on, like a deployed server
	defer mg.Close()
	h := server.New(mg)
	token, _ := createSession(b, h)
	defer benchRequest(b, h, "DELETE", "/v1/sessions/"+token, "")

	b.ReportAllocs()
	b.ResetTimer()
	bodyBytes := 0
	for i := 0; i < b.N; i++ {
		code, n := benchRequest(b, h, "GET", "/v1/sessions/"+token, "")
		if code != http.StatusOK {
			b.Fatalf("question: status %d", code)
		}
		bodyBytes += n
	}
	b.StopTimer()
	b.ReportMetric(float64(bodyBytes)/float64(b.N), "body_B/op")
}
