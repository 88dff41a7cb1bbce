package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"muse/internal/core"
	"muse/internal/designer"
	"muse/internal/mapping"
	"muse/internal/obs"
	"muse/internal/parser"
	"muse/internal/scenarios"
	"muse/internal/server"
)

// fig1Answers replays an in-process fig1 dialog with the intended
// design (projects grouped by company name) and records the answer
// sequence plus the final mapping texts, the reference every wire
// session must reproduce byte for byte.
func fig1Answers(t *testing.T) ([]core.Answer, []string) {
	t.Helper()
	fig := scenarios.NewFigure1(true)
	oracle := &designer.GroupingOracle{Desired: map[string][]mapping.Expr{
		"SKProjects": {mapping.E("c", "cname")},
	}}
	st := core.NewStepper(context.Background(), core.NewSession(fig.SrcDeps, fig.Source), fig.Set)
	defer st.Close()
	var answers []core.Answer
	for {
		step, err := st.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if step.Done {
			if step.Err != nil {
				t.Fatal(step.Err)
			}
			return answers, formatMappings(t, step.Result)
		}
		if step.Grouping == nil {
			t.Fatalf("fig1 posed a non-grouping question: %+v", step)
		}
		n, err := oracle.ChooseScenario(step.Grouping)
		if err != nil {
			t.Fatal(err)
		}
		answers = append(answers, core.Answer{Scenario: n})
		if _, err := st.Answer(context.Background(), answers[len(answers)-1]); err != nil {
			t.Fatal(err)
		}
	}
}

func formatMappings(t *testing.T, set *mapping.Set) []string {
	t.Helper()
	var out []string
	for _, m := range set.Mappings {
		out = append(out, parser.FormatMapping(m))
	}
	return out
}

// fig4Reference runs the fig4 dialog in process with fixed choices.
func fig4Reference(t *testing.T, sel [][]int) []string {
	t.Helper()
	fig := scenarios.NewFigure4()
	out, err := core.NewSession(fig.SrcDeps, fig.Source).
		Run(fig.Set, nil, &designer.ChoiceOracle{Selections: sel})
	if err != nil {
		t.Fatal(err)
	}
	return formatMappings(t, out)
}

func newTestServer(t *testing.T) (*httptest.Server, *server.Manager) {
	t.Helper()
	mg := server.NewManager(server.Builtin(), obs.New())
	ts := httptest.NewServer(server.New(mg))
	t.Cleanup(ts.Close)
	t.Cleanup(mg.Close)
	return ts, mg
}

// api issues one JSON request and decodes the JSON response.
func api(t *testing.T, method, url string, body any) (int, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: decoding response: %v", method, url, err)
	}
	return resp.StatusCode, out
}

// runWireSession drives one full session over HTTP and returns the
// final mapping texts. answer maps a step to the answer body; it
// receives the decoded "step" object.
func runWireSession(t *testing.T, base, scenario string, answer func(step map[string]any) map[string]any) []string {
	t.Helper()
	code, body := api(t, "POST", base+"/v1/sessions", map[string]any{"scenario": scenario})
	if code != http.StatusCreated {
		t.Fatalf("POST /v1/sessions: %d %v", code, body)
	}
	token := body["token"].(string)
	step := body["step"].(map[string]any)
	for i := 0; i < 100; i++ {
		switch step["state"] {
		case "done":
			code, res := api(t, "GET", base+"/v1/sessions/"+token+"/result", nil)
			if code != http.StatusOK {
				t.Fatalf("GET result: %d %v", code, res)
			}
			var texts []string
			for _, m := range res["mappings"].([]any) {
				texts = append(texts, m.(map[string]any)["text"].(string))
			}
			if code, _ := api(t, "DELETE", base+"/v1/sessions/"+token, nil); code != http.StatusOK {
				t.Fatalf("DELETE: %d", code)
			}
			return texts
		case "failed":
			t.Fatalf("session failed: %v", step["error"])
		}
		code, body = api(t, "POST", base+"/v1/sessions/"+token+"/answer", answer(step))
		if code != http.StatusOK {
			t.Fatalf("POST answer: %d %v", code, body)
		}
		step = body["step"].(map[string]any)
	}
	t.Fatal("session did not terminate within 100 answers")
	return nil
}

// TestWireSessionMatchesInProcess: the acceptance criterion — a
// scripted HTTP session produces byte-identical final mappings to the
// in-process core.Session.Run on the Fig. 1 scenario.
func TestWireSessionMatchesInProcess(t *testing.T) {
	answers, want := fig1Answers(t)
	ts, _ := newTestServer(t)

	i := 0
	got := runWireSession(t, ts.URL, "fig1", func(step map[string]any) map[string]any {
		if step["state"] != "grouping_question" {
			t.Fatalf("unexpected step state %v", step["state"])
		}
		if i >= len(answers) {
			t.Fatalf("wire dialog asked more than the recorded %d questions", len(answers))
		}
		a := map[string]any{"scenario": answers[i].Scenario}
		i++
		return a
	})
	if i != len(answers) {
		t.Fatalf("wire dialog asked %d questions, in-process asked %d", i, len(answers))
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("wire mappings differ from in-process run:\n--- wire ---\n%s\n--- in-process ---\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestConcurrentWireSessions runs many interleaved sessions — a mix of
// fig1 and fig4 — against one manager and index store, asserting every
// session stays isolated and lands on its scenario's reference
// mappings. Run under -race this is the concurrency acceptance test.
func TestConcurrentWireSessions(t *testing.T) {
	answers, wantFig1 := fig1Answers(t)
	sel := [][]int{{0}, {1}}
	wantFig4 := fig4Reference(t, sel)
	ts, mg := newTestServer(t)

	const n = 10 // 10 concurrent sessions: 5 fig1 + 5 fig4
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs <- fmt.Errorf("session %d panicked: %v", g, r)
				}
			}()
			if g%2 == 0 {
				i := 0
				got := runWireSession(t, ts.URL, "fig1", func(step map[string]any) map[string]any {
					a := map[string]any{"scenario": answers[i].Scenario}
					i++
					return a
				})
				if strings.Join(got, "\n") != strings.Join(wantFig1, "\n") {
					errs <- fmt.Errorf("session %d: fig1 mappings diverged", g)
				}
			} else {
				got := runWireSession(t, ts.URL, "fig4", func(step map[string]any) map[string]any {
					if step["state"] != "choice_question" {
						return map[string]any{} // will 422; surfaces as test failure
					}
					return map[string]any{"choices": sel}
				})
				if strings.Join(got, "\n") != strings.Join(wantFig4, "\n") {
					errs <- fmt.Errorf("session %d: fig4 mappings diverged", g)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := mg.Len(); got != 0 {
		t.Errorf("%d sessions left after all were deleted", got)
	}

	// The metrics endpoint reflects the traffic.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(text), fmt.Sprintf("muse_server_sessions_started_total %d", n)) {
		t.Errorf("metrics missing started=%d counter:\n%s", n, text)
	}
	if !strings.Contains(string(text), fmt.Sprintf("muse_server_sessions_finished_total %d", n)) {
		t.Errorf("metrics missing finished=%d counter", n)
	}
}

// TestWireErrors exercises the HTTP error mapping: unknown scenario
// and token (404), invalid answer (422, dialog not advanced), result
// before done (409), delete then 404.
func TestWireErrors(t *testing.T) {
	ts, _ := newTestServer(t)

	if code, body := api(t, "POST", ts.URL+"/v1/sessions", map[string]any{"scenario": "nope"}); code != http.StatusNotFound {
		t.Errorf("unknown scenario: %d %v", code, body)
	}
	if code, _ := api(t, "GET", ts.URL+"/v1/sessions/deadbeef", nil); code != http.StatusNotFound {
		t.Errorf("unknown token: %d", code)
	}

	code, body := api(t, "POST", ts.URL+"/v1/sessions", map[string]any{"scenario": "fig1"})
	if code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, body)
	}
	token := body["token"].(string)
	seqBefore := body["step"].(map[string]any)["seq"]

	if code, _ := api(t, "GET", ts.URL+"/v1/sessions/"+token+"/result", nil); code != http.StatusConflict {
		t.Errorf("early result: %d, want 409", code)
	}
	code, body = api(t, "POST", ts.URL+"/v1/sessions/"+token+"/answer", map[string]any{"scenario": 7})
	if code != http.StatusUnprocessableEntity {
		t.Errorf("invalid answer: %d %v, want 422", code, body)
	}
	if code, body = api(t, "GET", ts.URL+"/v1/sessions/"+token, nil); code != http.StatusOK {
		t.Fatalf("question after invalid answer: %d", code)
	} else if got := body["step"].(map[string]any)["seq"]; got != seqBefore {
		t.Errorf("invalid answer advanced the dialog: seq %v -> %v", seqBefore, got)
	}
	if code, _ := api(t, "DELETE", ts.URL+"/v1/sessions/"+token, nil); code != http.StatusOK {
		t.Errorf("delete: %d", code)
	}
	if code, _ := api(t, "DELETE", ts.URL+"/v1/sessions/"+token, nil); code != http.StatusNotFound {
		t.Errorf("double delete: %d, want 404", code)
	}
}

// TestResponsesAreCompact drives fig1 through every JSON route and
// requires each body to be one compact JSON document ended by exactly
// one newline: byte for byte what json.Encoder writes unindented.
func TestResponsesAreCompact(t *testing.T) {
	ts, _ := tracedServer(t, nil)
	check := func(route string, want, status int, body []byte) {
		t.Helper()
		if status != want {
			t.Fatalf("%s: status %d, want %d: %s", route, status, want, body)
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, body); err != nil {
			t.Fatalf("%s: not valid JSON: %v", route, err)
		}
		if compact.WriteByte('\n'); !bytes.Equal(body, compact.Bytes()) {
			t.Errorf("%s: body is not its compact form and one newline: %.160q", route, body)
		}
	}

	status, body := rawStep(t, "POST", ts.URL+"/v1/sessions", `{"scenario":"fig1"}`)
	check("create", http.StatusCreated, status, body)
	var created struct {
		Token string `json:"token"`
	}
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	session := ts.URL + "/v1/sessions/" + created.Token

	status, body = rawStep(t, "GET", session, "")
	check("question", http.StatusOK, status, body)
	for i, a := range fig1Script {
		status, body = rawStep(t, "POST", session+"/answer", fmt.Sprintf(`{"scenario":%d}`, a))
		check(fmt.Sprintf("answer %d", i+1), http.StatusOK, status, body)
	}
	status, body = rawStep(t, "GET", session+"/result", "")
	check("result", http.StatusOK, status, body)
	status, body = rawStep(t, "DELETE", session, "")
	check("delete", http.StatusOK, status, body)
	status, body = rawStep(t, "GET", ts.URL+"/healthz", "")
	check("healthz", http.StatusOK, status, body)
	status, body = rawStep(t, "GET", session, "")
	check("error", http.StatusNotFound, status, body)
	status, body = rawStep(t, "GET", ts.URL+"/debug/slow", "")
	check("debug/slow", http.StatusOK, status, body)
}

// TestCancelledRequestFailsSession: creating a session under an
// already-dead request context aborts the wizard work and leaves the
// session terminally failed (cancellation is session-fatal; dialogs
// are cheap to replay).
func TestCancelledRequestFailsSession(t *testing.T) {
	mg := server.NewManager(server.Builtin(), obs.New())
	defer mg.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sess, err := mg.Create(ctx, "fig1")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Release()
	start := time.Now()
	step, err := sess.Stepper.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !step.Done || step.Err == nil {
		t.Fatalf("session under a cancelled context did not fail terminally: %+v", step)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("cancellation took %v to surface", elapsed)
	}
}

// TestManagerBounds: the session count is bounded, idle LRU sessions
// are evicted to make room, and expired sessions are swept.
func TestManagerBounds(t *testing.T) {
	mg := server.NewManager(server.Builtin(), obs.New())
	mg.MaxSessions = 2
	defer mg.Close()

	open := func() *server.Session {
		s, err := mg.Create(context.Background(), "fig4")
		if err != nil {
			t.Fatal(err)
		}
		s.Release()
		return s
	}
	s1, s2 := open(), open()
	_ = s2
	s3 := open() // forces eviction of s1, the LRU
	if _, err := mg.Acquire(context.Background(), s1.Token); err != server.ErrNoSession {
		t.Errorf("LRU session still acquirable after eviction: %v", err)
	}
	if got := mg.Len(); got != 2 {
		t.Errorf("manager holds %d sessions, want 2", got)
	}

	// A busy session is never evicted: hold s2 and fill the manager.
	held, err := mg.Acquire(context.Background(), s2.Token)
	if err != nil {
		t.Fatal(err)
	}
	open() // evicts s3 (idle), not s2 (busy)
	if _, err := mg.Acquire(context.Background(), s3.Token); err != server.ErrNoSession {
		t.Errorf("idle s3 should have been evicted: %v", err)
	}
	held.Release()
	again, err := mg.Acquire(context.Background(), s2.Token)
	if err != nil {
		t.Fatalf("busy session was evicted: %v", err)
	}
	again.Release()

	// TTL expiry: shrink the TTL and wait it out.
	mg.TTL = 10 * time.Millisecond
	time.Sleep(20 * time.Millisecond)
	if _, err := mg.Create(context.Background(), "fig4"); err != nil {
		t.Fatal(err)
	}
	if got := mg.Len(); got != 1 {
		t.Errorf("after TTL sweep manager holds %d sessions, want 1 (the new one)", got)
	}
}
