package crosscheck

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"time"

	"muse/internal/core"
	"muse/internal/obs"
	"muse/internal/server"
)

// CheckServer runs the server oracle: a wire session over httptest
// must ask the same dialog and produce the same refined mappings as an
// in-process Stepper on a fresh copy of the scenario — and stay
// well-behaved under injected faults: malformed bodies, invalid
// answers, oversized payloads, cancelled requests, session eviction,
// and concurrent hammering (run the harness under -race to make the
// latter bite).
func CheckServer(cfg Config) []Failure {
	cfg = cfg.withDefaults()
	var fails []Failure
	add := func(f *Failure) {
		if f != nil {
			f.Seed = cfg.Seed
			fails = append(fails, *f)
		}
	}
	var names []string
	for name := range server.Builtin() {
		names = append(names, name)
	}
	sort.Strings(names) // cases, log lines and failures keep one order per seed
	for _, name := range names {
		for k := 0; k < cfg.Cases; k++ {
			seed := cfg.Seed + int64(k)*104729
			f := checkWireVsInProcess(name, seed)
			if f != nil {
				f.Case = fmt.Sprintf("%s/seed%d", name, seed)
			}
			add(f)
		}
		cfg.logf("  server case %s: %d wire dialogs", name, cfg.Cases)
	}
	add(checkServerFaults())
	add(checkServerEviction())
	add(checkServerConcurrency(cfg.Seed))
	return fails
}

// wireClient is a tiny JSON client over an httptest server.
type wireClient struct {
	base string
	c    *http.Client
}

func (w *wireClient) do(method, path string, body any) (int, map[string]any, error) {
	var rd *bytes.Reader
	if s, ok := body.(string); ok {
		rd = bytes.NewReader([]byte(s))
	} else if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(b)
	} else {
		rd = bytes.NewReader(nil)
	}
	req, err := http.NewRequest(method, w.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := w.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return resp.StatusCode, nil, fmt.Errorf("decoding %s %s response: %v", method, path, err)
	}
	return resp.StatusCode, out, nil
}

func newWireEnv(scenarios map[string]*server.Scenario, maxSessions int, ttl time.Duration) (*wireClient, *server.Manager, func()) {
	mg := server.NewManager(scenarios, obs.New())
	mg.MaxSessions = maxSessions
	if ttl > 0 {
		mg.TTL = ttl
	}
	ts := httptest.NewServer(server.New(mg))
	return &wireClient{base: ts.URL, c: ts.Client()}, mg, func() { ts.Close(); mg.Close() }
}

// checkWireVsInProcess drives one full dialog over the wire with
// seeded answers and replays the same answers on an in-process Stepper
// over a fresh Builtin scenario: the state sequence, question count,
// and final mapping texts must match.
func checkWireVsInProcess(scenario string, seed int64) *Failure {
	fail := func(detail string) *Failure {
		return &Failure{Oracle: "server", Detail: detail}
	}

	wc, _, stop := newWireEnv(server.Builtin(), 4, 0)
	defer stop()

	r := rand.New(rand.NewSource(seed))
	status, body, err := wc.do("POST", "/v1/sessions", map[string]any{"scenario": scenario})
	if err != nil || status != http.StatusCreated {
		return fail(fmt.Sprintf("create: status=%d err=%v", status, err))
	}
	token, _ := body["token"].(string)
	var states []string
	var answers []core.Answer
	step, _ := body["step"].(map[string]any)
	for i := 0; i < 100; i++ {
		state, _ := step["state"].(string)
		states = append(states, state)
		var ans core.Answer
		switch state {
		case "grouping_question":
			ans = core.Answer{Scenario: 1 + r.Intn(2)}
		case "choice_question":
			ans = core.Answer{Choices: wireChoiceAnswer(r, step)}
		case "done", "failed":
			return compareInProcess(scenario, states, answers, wc, token, fail)
		default:
			return fail(fmt.Sprintf("unknown wire step state %q", state))
		}
		answers = append(answers, ans)
		status, body, err = wc.do("POST", "/v1/sessions/"+token+"/answer",
			map[string]any{"scenario": ans.Scenario, "choices": ans.Choices})
		if err != nil || status != http.StatusOK {
			return fail(fmt.Sprintf("answer %d: status=%d err=%v", i+1, status, err))
		}
		step, _ = body["step"].(map[string]any)
	}
	return fail("wire dialog did not terminate within 100 questions")
}

// wireChoiceAnswer draws a random valid selection for a rendered
// choice question (per or-group, a non-empty subset of its values).
func wireChoiceAnswer(r *rand.Rand, step map[string]any) [][]int {
	choice, _ := step["choice"].(map[string]any)
	groups, _ := choice["choices"].([]any)
	out := make([][]int, len(groups))
	for gi, g := range groups {
		gm, _ := g.(map[string]any)
		vals, _ := gm["values"].([]any)
		var sel []int
		for i := range vals {
			if r.Float64() < 0.5 {
				sel = append(sel, i)
			}
		}
		if len(sel) == 0 && len(vals) > 0 {
			sel = []int{r.Intn(len(vals))}
		}
		out[gi] = sel
	}
	return out
}

// compareInProcess replays the recorded answers on a fresh in-process
// Stepper and checks the dialog shape and result against the wire run.
func compareInProcess(scenario string, states []string, answers []core.Answer, wc *wireClient, token string, fail func(string) *Failure) *Failure {
	sc := server.Builtin()[scenario]
	st := core.NewStepper(context.Background(), core.NewSession(sc.Deps, sc.Real), sc.Set)
	defer st.Close()
	var inStates []string
	ai := 0
	for i := 0; i < 100; i++ {
		step, err := st.Step(context.Background())
		if err != nil {
			return fail(fmt.Sprintf("in-process Step failed: %v", err))
		}
		switch {
		case step.Done && step.Err != nil:
			inStates = append(inStates, "failed")
		case step.Done:
			inStates = append(inStates, "done")
		case step.Grouping != nil:
			inStates = append(inStates, "grouping_question")
		default:
			inStates = append(inStates, "choice_question")
		}
		if step.Done {
			break
		}
		if ai >= len(answers) {
			return fail("in-process dialog asked more questions than the wire dialog")
		}
		if _, err := st.Answer(context.Background(), answers[ai]); err != nil {
			return fail(fmt.Sprintf("in-process replay of answer %d failed: %v", ai+1, err))
		}
		ai++
	}
	if strings.Join(states, ",") != strings.Join(inStates, ",") {
		return fail(fmt.Sprintf("dialog shapes differ:\nwire:       %v\nin-process: %v", states, inStates))
	}

	// Terminal result: wire /result vs in-process formatted mappings.
	status, body, err := wc.do("GET", "/v1/sessions/"+token+"/result", nil)
	if err != nil || status != http.StatusOK {
		return fail(fmt.Sprintf("result: status=%d err=%v", status, err))
	}
	final := st.Result()
	if state, _ := body["state"].(string); state == "failed" {
		if final.Err == nil {
			return fail("wire session failed but in-process session succeeded")
		}
		return nil
	}
	if final.Err != nil {
		return fail(fmt.Sprintf("wire session succeeded but in-process session failed: %v", final.Err))
	}
	var wireTexts []string
	if ms, ok := body["mappings"].([]any); ok {
		for _, m := range ms {
			mm, _ := m.(map[string]any)
			text, _ := mm["text"].(string)
			wireTexts = append(wireTexts, text)
		}
	}
	// The wire "text" fields are parser.FormatMapping renderings, so
	// the concatenation is byte-comparable to the in-process format.
	joined := strings.Join(wireTexts, "\n") + "\n"
	if inText := formatMappingSet(final.Result); joined != inText {
		return fail(fmt.Sprintf("refined mappings differ:\n--- wire ---\n%s--- in-process ---\n%s", joined, inText))
	}
	if q, _ := body["questions"].(float64); int(q) != len(answers) {
		return fail(fmt.Sprintf("wire reports %v questions, %d answers were given", q, len(answers)))
	}
	return nil
}

// checkServerFaults injects malformed and hostile requests and asserts
// the uniform error contract: 4xx with {error, code}, session state
// undisturbed, no 5xx, no hangs.
func checkServerFaults() *Failure {
	fail := func(detail string) *Failure {
		return &Failure{Oracle: "server", Case: "faults", Detail: detail}
	}
	wc, mg, stop := newWireEnv(server.Builtin(), 4, 0)
	defer stop()

	// Malformed create bodies → 400 bad_json, and no session leaks.
	for _, body := range []string{`{"scenario":`, `garbage`, `[1,2]`, `"fig1"`, ``} {
		status, resp, err := wc.do("POST", "/v1/sessions", body)
		if err != nil || status != http.StatusBadRequest {
			return fail(fmt.Sprintf("malformed create %q: status=%d err=%v", body, status, err))
		}
		if code, _ := resp["code"].(string); code != "bad_json" {
			return fail(fmt.Sprintf("malformed create %q: code=%q, want bad_json", body, resp["code"]))
		}
	}
	if n := mg.Len(); n != 0 {
		return fail(fmt.Sprintf("malformed creates leaked %d sessions", n))
	}
	// Unknown scenario and token → 404 with the right codes.
	if status, resp, _ := wc.do("POST", "/v1/sessions", map[string]any{"scenario": "nope"}); status != http.StatusNotFound || resp["code"] != "no_scenario" {
		return fail(fmt.Sprintf("unknown scenario: status=%d code=%v", status, resp["code"]))
	}
	if status, resp, _ := wc.do("GET", "/v1/sessions/deadbeef", nil); status != http.StatusNotFound || resp["code"] != "no_session" {
		return fail(fmt.Sprintf("unknown token: status=%d code=%v", status, resp["code"]))
	}

	// A live session: invalid answers and malformed answer bodies must
	// leave the pending question untouched.
	status, body, err := wc.do("POST", "/v1/sessions", map[string]any{"scenario": "fig1"})
	if err != nil || status != http.StatusCreated {
		return fail(fmt.Sprintf("create fig1: status=%d err=%v", status, err))
	}
	token, _ := body["token"].(string)
	step0, _ := body["step"].(map[string]any)
	seq0, _ := step0["seq"].(float64)

	if status, resp, _ := wc.do("POST", "/v1/sessions/"+token+"/answer", map[string]any{"scenario": 9}); status != http.StatusUnprocessableEntity || resp["code"] != "invalid_answer" {
		return fail(fmt.Sprintf("invalid answer: status=%d code=%v, want 422 invalid_answer", status, resp["code"]))
	}
	if status, resp, _ := wc.do("POST", "/v1/sessions/"+token+"/answer", `{"scenario":`); status != http.StatusBadRequest || resp["code"] != "bad_json" {
		return fail(fmt.Sprintf("malformed answer: status=%d code=%v, want 400 bad_json", status, resp["code"]))
	}
	// Oversized body → the MaxBytesReader trips inside the JSON decode.
	big := `{"scenario": 1, "pad": "` + strings.Repeat("x", server.MaxBodyBytes+1) + `"}`
	if status, _, err := wc.do("POST", "/v1/sessions/"+token+"/answer", big); err != nil || status < 400 || status >= 500 {
		return fail(fmt.Sprintf("oversized answer: status=%d err=%v, want a 4xx", status, err))
	}
	// Result before the dialog finished → 409 not_done.
	if status, resp, _ := wc.do("GET", "/v1/sessions/"+token+"/result", nil); status != http.StatusConflict || resp["code"] != "not_done" {
		return fail(fmt.Sprintf("early result: status=%d code=%v, want 409 not_done", status, resp["code"]))
	}
	// After all that abuse, the same question is still pending.
	status, body, err = wc.do("GET", "/v1/sessions/"+token, nil)
	if err != nil || status != http.StatusOK {
		return fail(fmt.Sprintf("step after faults: status=%d err=%v", status, err))
	}
	step1, _ := body["step"].(map[string]any)
	if seq1, _ := step1["seq"].(float64); seq1 != seq0 {
		return fail(fmt.Sprintf("faults advanced the dialog: seq %v → %v", seq0, seq1))
	}

	// Request cancellation mid-step: a cancelled answer request must
	// not wedge the session — a follow-up GET still answers, with the
	// session either pending (same seq) or terminally failed.
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "POST", wc.base+"/v1/sessions/"+token+"/answer",
		strings.NewReader(`{"scenario": 1}`))
	cancel()
	resp, err := wc.c.Do(req)
	if err == nil {
		resp.Body.Close()
	}
	status, body, err = wc.do("GET", "/v1/sessions/"+token, nil)
	if err != nil || status != http.StatusOK {
		return fail(fmt.Sprintf("step after cancelled request: status=%d err=%v", status, err))
	}
	// Deleting the session must work and make further lookups 404.
	if status, _, err := wc.do("DELETE", "/v1/sessions/"+token, nil); err != nil || status != http.StatusOK {
		return fail(fmt.Sprintf("delete: status=%d err=%v", status, err))
	}
	if status, _, _ := wc.do("GET", "/v1/sessions/"+token, nil); status != http.StatusNotFound {
		return fail(fmt.Sprintf("lookup after delete: status=%d, want 404", status))
	}
	return nil
}

// checkServerEviction fills a MaxSessions=2 manager and asserts the
// LRU contract: the oldest idle session is evicted for the newcomer
// and its token stops resolving; the survivors keep working.
func checkServerEviction() *Failure {
	fail := func(detail string) *Failure {
		return &Failure{Oracle: "server", Case: "eviction", Detail: detail}
	}
	wc, mg, stop := newWireEnv(server.Builtin(), 2, 0)
	defer stop()
	var tokens []string
	for i := 0; i < 3; i++ {
		status, body, err := wc.do("POST", "/v1/sessions", map[string]any{"scenario": "fig1"})
		if err != nil || status != http.StatusCreated {
			return fail(fmt.Sprintf("create %d: status=%d err=%v", i, status, err))
		}
		token, _ := body["token"].(string)
		tokens = append(tokens, token)
	}
	if n := mg.Len(); n != 2 {
		return fail(fmt.Sprintf("manager holds %d sessions after eviction, want 2", n))
	}
	if status, _, _ := wc.do("GET", "/v1/sessions/"+tokens[0], nil); status != http.StatusNotFound {
		return fail(fmt.Sprintf("evicted session still resolves: status=%d, want 404", status))
	}
	for _, tok := range tokens[1:] {
		if status, _, err := wc.do("GET", "/v1/sessions/"+tok, nil); err != nil || status != http.StatusOK {
			return fail(fmt.Sprintf("surviving session %s: status=%d err=%v", tok, status, err))
		}
	}
	return nil
}

// checkServerConcurrency hammers one session and the create endpoint
// from many goroutines. The contract is coarse but strict: every
// response is a well-formed JSON reply with an allowed status (2xx or
// the documented 4xx set), never a 5xx, and the server neither
// deadlocks nor data-races (the harness runs under -race in CI).
func checkServerConcurrency(seed int64) *Failure {
	fail := func(detail string) *Failure {
		return &Failure{Oracle: "server", Case: "concurrency", Detail: detail}
	}
	wc, _, stop := newWireEnv(server.Builtin(), 3, 0)
	defer stop()
	status, body, err := wc.do("POST", "/v1/sessions", map[string]any{"scenario": "fig1"})
	if err != nil || status != http.StatusCreated {
		return fail(fmt.Sprintf("create: status=%d err=%v", status, err))
	}
	token, _ := body["token"].(string)

	allowed := map[int]bool{
		http.StatusOK: true, http.StatusCreated: true,
		http.StatusBadRequest: true, http.StatusNotFound: true,
		http.StatusConflict: true, http.StatusUnprocessableEntity: true,
		http.StatusServiceUnavailable: true, http.StatusGatewayTimeout: true,
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed + int64(g)))
			for i := 0; i < 6; i++ {
				var status int
				var err error
				switch r.Intn(4) {
				case 0:
					status, _, err = wc.do("GET", "/v1/sessions/"+token, nil)
				case 1:
					status, _, err = wc.do("POST", "/v1/sessions/"+token+"/answer", map[string]any{"scenario": 1 + r.Intn(2)})
				case 2:
					status, _, err = wc.do("POST", "/v1/sessions", map[string]any{"scenario": "fig4"})
				default:
					status, _, err = wc.do("GET", "/v1/sessions/"+token+"/result", nil)
				}
				if err != nil {
					errs <- fmt.Sprintf("goroutine %d: %v", g, err)
					return
				}
				if !allowed[status] {
					errs <- fmt.Sprintf("goroutine %d: status %d outside the contract", g, status)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		return fail(e)
	}
	// The hammered session must still answer coherently.
	if status, _, err := wc.do("GET", "/v1/sessions/"+token, nil); err != nil || (status != http.StatusOK && status != http.StatusNotFound) {
		return fail(fmt.Sprintf("session state after hammering: status=%d err=%v", status, err))
	}
	return nil
}
