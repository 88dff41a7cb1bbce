package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"muse/internal/obs"
	"muse/internal/server"
)

// tracedServer builds a server with the flight recorder capturing
// every step (threshold 0) and an access log into buf.
func tracedServer(t *testing.T, accessBuf *bytes.Buffer) (*httptest.Server, *server.Manager) {
	t.Helper()
	mg := server.NewManager(server.Builtin(), obs.New())
	srv := server.New(mg)
	srv.Flight = server.NewFlightRecorder(0, 8)
	if accessBuf != nil {
		srv.Access = server.NewAccessLog(accessBuf)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(mg.Close)
	return ts, mg
}

// ridRequest issues one request carrying a client request id and
// returns the response, its echoed id, and the decoded body.
func ridRequest(t *testing.T, method, url, rid string, body io.Reader) (*http.Response, string, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	if rid != "" {
		req.Header.Set(server.RequestIDHeader, rid)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	json.NewDecoder(resp.Body).Decode(&out) // some bodies are empty
	return resp, resp.Header.Get(server.RequestIDHeader), out
}

var hexID = regexp.MustCompile(`^[0-9a-f]{32}$`)

// TestRequestIDEcho: every error path echoes the client's request id in
// the response header AND the {error, code, request_id} body, so a
// failing call is correlatable from either. Covers 400, 404, 409, 413,
// 422 and 503.
func TestRequestIDEcho(t *testing.T) {
	ts, mg := tracedServer(t, nil)

	check := func(name, method, path, rid string, body io.Reader, wantStatus int, wantCode string) {
		t.Helper()
		resp, echoed, out := ridRequest(t, method, ts.URL+path, rid, body)
		if resp.StatusCode != wantStatus {
			t.Errorf("%s: status %d, want %d (%v)", name, resp.StatusCode, wantStatus, out)
		}
		if echoed != rid {
			t.Errorf("%s: header echoed %q, want %q", name, echoed, rid)
		}
		if out["request_id"] != rid {
			t.Errorf("%s: body request_id %v, want %q", name, out["request_id"], rid)
		}
		if out["code"] != wantCode {
			t.Errorf("%s: code %v, want %q", name, out["code"], wantCode)
		}
	}

	check("unknown scenario", "POST", "/v1/sessions", "rid-404a",
		strings.NewReader(`{"scenario":"nope"}`), http.StatusNotFound, "no_scenario")
	check("unknown token", "GET", "/v1/sessions/deadbeef", "rid-404b",
		nil, http.StatusNotFound, "no_session")
	check("bad json", "POST", "/v1/sessions", "rid-400",
		strings.NewReader(`{`), http.StatusBadRequest, "bad_json")
	// Valid JSON past the body cap, so the decoder reads until the
	// MaxBytesReader trips rather than failing on a syntax error.
	huge := `{"scenario":"` + strings.Repeat("a", server.MaxBodyBytes) + `"}`
	check("oversized body", "POST", "/v1/sessions", "rid-413",
		strings.NewReader(huge), http.StatusRequestEntityTooLarge, "too_large")

	// A live session: early result is 409, a malformed answer 422.
	resp, createRID, out := ridRequest(t, "POST", ts.URL+"/v1/sessions", "rid-create",
		strings.NewReader(`{"scenario":"fig1"}`))
	if resp.StatusCode != http.StatusCreated || createRID != "rid-create" {
		t.Fatalf("create: %d rid=%q (%v)", resp.StatusCode, createRID, out)
	}
	token := out["token"].(string)
	check("early result", "GET", "/v1/sessions/"+token+"/result", "rid-409",
		nil, http.StatusConflict, "not_done")
	check("invalid answer", "POST", "/v1/sessions/"+token+"/answer", "rid-422",
		strings.NewReader(`{"scenario":7}`), http.StatusUnprocessableEntity, "invalid_answer")

	// 503 full: one-session manager whose only session is held busy, so
	// eviction cannot make room.
	mg.MaxSessions = 1
	held, err := mg.Acquire(context.Background(), token)
	if err != nil {
		t.Fatal(err)
	}
	check("manager full", "POST", "/v1/sessions", "rid-503",
		strings.NewReader(`{"scenario":"fig1"}`), http.StatusServiceUnavailable, "full")
	held.Release()

	// No client id: the server mints a 32-hex one.
	if _, echoed, _ := ridRequest(t, "GET", ts.URL+"/healthz", "", nil); !hexID.MatchString(echoed) {
		t.Errorf("minted request id %q, want 32 hex chars", echoed)
	}
	// An unusable client id (too long) is replaced, not echoed.
	long := strings.Repeat("a", 200)
	if _, echoed, _ := ridRequest(t, "GET", ts.URL+"/healthz", long, nil); echoed == long || !hexID.MatchString(echoed) {
		t.Errorf("oversized client id echoed as %q, want a fresh 32-hex id", echoed)
	}
}

// wireSlow mirrors the GET /debug/slow response shape.
type wireSlow struct {
	ThresholdNS int64             `json:"threshold_ns"`
	Captured    int64             `json:"captured"`
	Steps       []server.SlowStep `json:"steps"`
}

// TestDebugSlowCapturesTrace is the acceptance test for the flight
// recorder: with the threshold at zero every step is captured, and the
// captured record for a create carries the full span tree — handler →
// stepper → chase/query, one shared trace id — plus the explain
// attribute on the query spans.
func TestDebugSlowCapturesTrace(t *testing.T) {
	ts, _ := tracedServer(t, nil)

	resp, rid, out := ridRequest(t, "POST", ts.URL+"/v1/sessions", "rid-slow",
		strings.NewReader(`{"scenario":"fig1"}`))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d (%v)", resp.StatusCode, out)
	}
	defer ridRequest(t, "DELETE", ts.URL+"/v1/sessions/"+out["token"].(string), "", nil)

	sresp, _, _ := ridRequest(t, "GET", ts.URL+"/debug/slow", "", nil)
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/slow: %d", sresp.StatusCode)
	}
	sresp2, err := http.Get(ts.URL + "/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp2.Body.Close()
	var slow wireSlow
	if err := json.NewDecoder(sresp2.Body).Decode(&slow); err != nil {
		t.Fatal(err)
	}
	if slow.ThresholdNS != 0 || slow.Captured == 0 {
		t.Fatalf("slow response: threshold %d captured %d", slow.ThresholdNS, slow.Captured)
	}
	var step *server.SlowStep
	for i := range slow.Steps {
		if slow.Steps[i].RequestID == rid {
			step = &slow.Steps[i]
		}
	}
	if step == nil {
		t.Fatalf("create with request id %q not captured; have %d steps", rid, len(slow.Steps))
	}
	if step.Route != "create" || step.Scenario != "fig1" || step.Status != http.StatusCreated {
		t.Errorf("captured step metadata wrong: %+v", step)
	}
	if step.TraceID == "" {
		t.Fatal("captured step has no trace id")
	}

	// Reconstruct the tree: every span shares the trace, core.step's
	// parent is the server.request root, and the engine spans hang off
	// core.step.
	byID := map[string]obs.SpanRecord{}
	names := map[string]int{}
	for _, rec := range step.Spans {
		if rec.TraceID != step.TraceID {
			t.Errorf("span %s trace %q, want %q", rec.Name, rec.TraceID, step.TraceID)
		}
		byID[rec.SpanID] = rec
		names[rec.Name]++
	}
	var root, coreStep obs.SpanRecord
	for _, rec := range step.Spans {
		switch rec.Name {
		case obs.SpanSrvRequest:
			root = rec
		case obs.SpanCoreStep:
			coreStep = rec
		}
	}
	if root.SpanID == "" || coreStep.SpanID == "" {
		t.Fatalf("span tree missing root/stepper: names %v", names)
	}
	if root.ParentID != "" {
		t.Errorf("server.request has parent %q, want none", root.ParentID)
	}
	if coreStep.ParentID != root.SpanID {
		t.Errorf("core.step parent %q, want server.request %q", coreStep.ParentID, root.SpanID)
	}
	if got := root.AttrMap()["request_id"]; got != rid {
		t.Errorf("root request_id attr %v, want %q", got, rid)
	}
	if names[obs.SpanChase] == 0 || names[obs.SpanQueryEval] == 0 {
		t.Fatalf("capture missing engine spans: %v", names)
	}
	// Engine spans must transitively reach the root through byID.
	reachesRoot := func(rec obs.SpanRecord) bool {
		for hops := 0; hops < 16; hops++ {
			if rec.SpanID == root.SpanID {
				return true
			}
			parent, ok := byID[rec.ParentID]
			if !ok {
				return false
			}
			rec = parent
		}
		return false
	}
	explains := 0
	for _, rec := range step.Spans {
		if rec.Name == obs.SpanChase || rec.Name == obs.SpanQueryEval {
			if !reachesRoot(rec) {
				t.Errorf("%s span %s does not chain to the request root", rec.Name, rec.SpanID)
			}
		}
		if rec.Name == obs.SpanQueryEval {
			if ex, ok := rec.AttrMap()["explain"].(string); ok && ex != "" {
				explains++
			}
		}
	}
	if explains == 0 {
		t.Error("no query.eval span carried its explain attribute (detail flag lost?)")
	}
}

// TestDebugSlowDisabled: a nil recorder turns the endpoint into a 404
// with the uniform error body.
func TestDebugSlowDisabled(t *testing.T) {
	mg := server.NewManager(server.Builtin(), obs.New())
	srv := server.New(mg)
	srv.Flight = nil
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(mg.Close)
	resp, _, out := ridRequest(t, "GET", ts.URL+"/debug/slow", "rid-nf", nil)
	if resp.StatusCode != http.StatusNotFound || out["code"] != "no_flight_recorder" {
		t.Errorf("/debug/slow with recorder off: %d %v", resp.StatusCode, out)
	}
}

// TestAccessLog: one JSONL entry per request with the documented
// fields, request ids included, written in completion order.
func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	ts, _ := tracedServer(t, &buf)

	resp, rid, out := ridRequest(t, "POST", ts.URL+"/v1/sessions", "rid-log",
		strings.NewReader(`{"scenario":"fig1"}`))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d (%v)", resp.StatusCode, out)
	}
	token := out["token"].(string)
	ridRequest(t, "GET", ts.URL+"/v1/sessions/"+token, "", nil)
	ridRequest(t, "DELETE", ts.URL+"/v1/sessions/"+token, "", nil)

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("access log has %d lines, want 3:\n%s", len(lines), buf.String())
	}
	var entry struct {
		Time      string `json:"time"`
		RequestID string `json:"request_id"`
		Method    string `json:"method"`
		Route     string `json:"route"`
		Path      string `json:"path"`
		Token     string `json:"token"`
		Scenario  string `json:"scenario"`
		Status    int    `json:"status"`
		DurNS     int64  `json:"dur_ns"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
		t.Fatalf("access line not JSON: %v\n%s", err, lines[0])
	}
	if entry.RequestID != rid || entry.Method != "POST" || entry.Route != "create" ||
		entry.Path != "/v1/sessions" || entry.Token != token || entry.Scenario != "fig1" ||
		entry.Status != http.StatusCreated || entry.DurNS <= 0 || entry.Time == "" {
		t.Errorf("access entry wrong: %+v", entry)
	}
	var second struct {
		Route string `json:"route"`
	}
	json.Unmarshal([]byte(lines[1]), &second)
	if second.Route != "question" {
		t.Errorf("second entry route %q, want question", second.Route)
	}
}

// TestServerWithoutTracer: a manager whose Obs has no tracer still
// serves and mints request ids — the tracing middleware is one nil
// check, not a requirement.
func TestServerWithoutTracer(t *testing.T) {
	o := &obs.Obs{Reg: obs.NewRegistry()} // metrics on, tracing off
	mg := server.NewManager(server.Builtin(), o)
	srv := server.New(mg)
	srv.Flight = server.NewFlightRecorder(0, 8)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	t.Cleanup(mg.Close)

	resp, rid, out := ridRequest(t, "POST", ts.URL+"/v1/sessions", "",
		strings.NewReader(`{"scenario":"fig4"}`))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create without tracer: %d (%v)", resp.StatusCode, out)
	}
	if !hexID.MatchString(rid) {
		t.Errorf("request id %q, want minted 32-hex", rid)
	}
	ridRequest(t, "DELETE", ts.URL+"/v1/sessions/"+out["token"].(string), "", nil)
}
