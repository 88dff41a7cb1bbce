package server_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"muse/internal/core"
	"muse/internal/obs"
	"muse/internal/server"
	"muse/internal/server/walstore"
)

// rawStep issues one request and returns the raw response body: resume
// correctness is byte-identity of the rendered step, so the tests
// compare bytes, not decoded trees.
func rawStep(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
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
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func createFig1(t *testing.T, base string) string {
	t.Helper()
	status, body := api(t, "POST", base+"/v1/sessions", map[string]any{"scenario": "fig1"})
	if status != http.StatusCreated {
		t.Fatalf("create: status %d body %v", status, body)
	}
	return body["token"].(string)
}

func answerFig1(t *testing.T, base, token string, answers []core.Answer, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		status, body := api(t, "POST", base+"/v1/sessions/"+token+"/answer",
			map[string]any{"scenario": answers[i].Scenario})
		if status != http.StatusOK {
			t.Fatalf("answer %d: status %d body %v", i+1, status, body)
		}
	}
}

// TestResumeAfterEviction: with the in-memory store attached, an
// LRU-evicted token is not lost — the next request rebuilds the dialog
// by replay, byte-identical, and the dialog finishes normally.
func TestResumeAfterEviction(t *testing.T) {
	answers, wantMappings := fig1Answers(t)
	mg := server.NewManager(server.Builtin(), obs.New())
	mg.MaxSessions = 1
	mg.Store = server.NewMemStore()
	ts := httptest.NewServer(server.New(mg))
	t.Cleanup(ts.Close)
	t.Cleanup(mg.Close)

	token := createFig1(t, ts.URL)
	answerFig1(t, ts.URL, token, answers, 0, 4)
	status, before := rawStep(t, "GET", ts.URL+"/v1/sessions/"+token, "")
	if status != http.StatusOK {
		t.Fatalf("question before eviction: status %d", status)
	}

	// A second session in a 1-slot manager evicts the idle first.
	other := createFig1(t, ts.URL)
	if n := mg.Len(); n != 1 {
		t.Fatalf("manager holds %d sessions, want 1 after eviction", n)
	}
	resumes := mg.Obs.Registry().Counter(obs.MSrvResumes)
	if got := resumes.Value(); got != 0 {
		t.Fatalf("resume counter %d before any resume", got)
	}

	// The evicted token transparently resumes, serving the exact bytes.
	status, after := rawStep(t, "GET", ts.URL+"/v1/sessions/"+token, "")
	if status != http.StatusOK {
		t.Fatalf("question after eviction: status %d body %s", status, after)
	}
	if string(before) != string(after) {
		t.Fatalf("resumed step differs:\n--- before eviction ---\n%s\n--- resumed ---\n%s", before, after)
	}
	if got := resumes.Value(); got != 1 {
		t.Fatalf("resume counter = %d, want 1", got)
	}

	// Finish the resumed dialog; the result must match the reference.
	answerFig1(t, ts.URL, token, answers, 4, len(answers))
	status, result := api(t, "GET", ts.URL+"/v1/sessions/"+token+"/result", nil)
	if status != http.StatusOK {
		t.Fatalf("result: status %d body %v", status, result)
	}
	texts := result["mappings"].([]any)
	if len(texts) != len(wantMappings) {
		t.Fatalf("result has %d mappings, want %d", len(texts), len(wantMappings))
	}
	for i, m := range texts {
		if got := m.(map[string]any)["text"].(string); got != wantMappings[i] {
			t.Fatalf("mapping %d diverged after resume:\n%s\nwant:\n%s", i, got, wantMappings[i])
		}
	}
	_ = other
}

// TestResumeAcrossRestart: a WAL-backed dialog killed mid-flight (the
// whole manager torn down, a new one opened over the same directory —
// a process restart in miniature) resumes byte-identically and runs to
// the reference result.
func TestResumeAcrossRestart(t *testing.T) {
	answers, wantMappings := fig1Answers(t)
	dir := t.TempDir()

	ws, _, err := walstore.Open(dir, walstore.Options{Fsync: false})
	if err != nil {
		t.Fatal(err)
	}
	mg := server.NewManager(server.Builtin(), obs.New())
	mg.Store = ws
	ts := httptest.NewServer(server.New(mg))

	token := createFig1(t, ts.URL)
	answerFig1(t, ts.URL, token, answers, 0, 5)
	status, before := rawStep(t, "GET", ts.URL+"/v1/sessions/"+token, "")
	if status != http.StatusOK {
		t.Fatalf("question before restart: status %d", status)
	}

	// "Crash": no graceful store close, just tear down the process
	// state and boot a fresh replica over the same WAL dir.
	ts.Close()
	mg.Close()
	ws.Close()

	ws2, stats, err := walstore.Open(dir, walstore.Options{Fsync: false})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sessions != 1 || stats.Corrupt != 0 {
		t.Fatalf("recovery stats = %+v", stats)
	}
	mg2 := server.NewManager(server.Builtin(), obs.New())
	mg2.Store = ws2
	ts2 := httptest.NewServer(server.New(mg2))
	t.Cleanup(ts2.Close)
	t.Cleanup(mg2.Close)

	status, after := rawStep(t, "GET", ts2.URL+"/v1/sessions/"+token, "")
	if status != http.StatusOK {
		t.Fatalf("question after restart: status %d body %s", status, after)
	}
	if string(before) != string(after) {
		t.Fatalf("resumed step differs across restart:\n--- before ---\n%s\n--- after ---\n%s", before, after)
	}

	answerFig1(t, ts2.URL, token, answers, 5, len(answers))
	status, result := api(t, "GET", ts2.URL+"/v1/sessions/"+token+"/result", nil)
	if status != http.StatusOK {
		t.Fatalf("result after restart: status %d body %v", status, result)
	}
	texts := result["mappings"].([]any)
	for i, m := range texts {
		if got := m.(map[string]any)["text"].(string); got != wantMappings[i] {
			t.Fatalf("mapping %d diverged after restart:\n%s\nwant:\n%s", i, got, wantMappings[i])
		}
	}

	// DELETE removes the durable state too: the token 404s on replica 3.
	if status, _ := api(t, "DELETE", ts2.URL+"/v1/sessions/"+token, nil); status != http.StatusOK {
		t.Fatalf("delete: status %d", status)
	}
	if _, err := os.Stat(filepath.Join(dir, token+".wal")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("WAL file survived DELETE")
	}
}

// TestFinishedDialogAcrossReplicas: a dialog finished on replica A
// (its log ends in a done record) resumes on replica B, opened fresh
// over the same WAL directory, at its terminal step: B serves the
// byte-identical result and completes the token again, which appends a
// second done record that still loads as done.
func TestFinishedDialogAcrossReplicas(t *testing.T) {
	answers, _ := fig1Answers(t)
	dir := t.TempDir()

	_, a := walReplica(t, dir)
	token := createFig1(t, a.URL)
	answerFig1(t, a.URL, token, answers, 0, len(answers))
	status, want := rawStep(t, "GET", a.URL+"/v1/sessions/"+token+"/result", "")
	if status != http.StatusOK {
		t.Fatalf("result on A: status %d body %s", status, want)
	}
	if n := countDone(t, dir, token); n != 1 {
		t.Fatalf("log holds %d done records after A finished, want 1", n)
	}

	mgB, b := walReplica(t, dir)
	status, got := rawStep(t, "GET", b.URL+"/v1/sessions/"+token+"/result", "")
	if status != http.StatusOK {
		t.Fatalf("result on B: status %d body %s", status, got)
	}
	if string(got) != string(want) {
		t.Fatalf("B's result differs from A's:\n--- A ---\n%s\n--- B ---\n%s", want, got)
	}
	if n := mgB.Obs.Registry().Counter(obs.MSrvResumes).Value(); n != 1 {
		t.Fatalf("B resumed %d times, want 1", n)
	}
	if n := countDone(t, dir, token); n != 2 {
		t.Fatalf("log holds %d done records after B served the result, want 2", n)
	}

	ws, stats, err := walstore.Open(dir, walstore.Options{Fsync: false})
	if err != nil {
		t.Fatal(err)
	}
	defer ws.Close()
	if stats.Sessions != 1 || stats.TornTails != 0 || stats.Corrupt != 0 {
		t.Fatalf("third open: recovery stats = %+v", stats)
	}
	ss, ok, err := ws.Load(token)
	if err != nil || !ok || !ss.Done || len(ss.Answers) != len(answers) {
		t.Fatalf("third open: Load ok=%v err=%v done=%v answers=%d, want done with %d", ok, err, ss.Done, len(ss.Answers), len(answers))
	}
}

// TestCancelledDialogResumesAfterDone: an answer whose request was
// cancelled fails the session terminally, and polling that failed step
// completes the token, so its log holds a done record. The failure is
// not logged: a replica opened over the same directory replays to the
// next pending question and accepts its answer after the done record.
// That acknowledged answer must survive another reopen, and the dialog
// must run on to the reference result.
func TestCancelledDialogResumesAfterDone(t *testing.T) {
	answers, wantMappings := fig1Answers(t)
	dir := t.TempDir()

	_, a := walReplica(t, dir)
	token := createFig1(t, a.URL)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/v1/sessions/"+token+"/answer",
		strings.NewReader(fmt.Sprintf(`{"scenario":%d}`, answers[0].Scenario))).WithContext(ctx)
	rec := httptest.NewRecorder()
	a.Config.Handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout && rec.Code != http.StatusOK {
		t.Fatalf("cancelled answer: status %d body %s", rec.Code, rec.Body)
	}
	status, body := api(t, "GET", a.URL+"/v1/sessions/"+token, nil)
	if state := body["step"].(map[string]any)["state"]; status != http.StatusOK || state != "failed" {
		t.Fatalf("step after the cancelled answer: status %d state %v, want failed", status, state)
	}
	if n := countDone(t, dir, token); n != 1 {
		t.Fatalf("log holds %d done records after the failed step, want 1", n)
	}

	_, b := walReplica(t, dir)
	status, body = api(t, "GET", b.URL+"/v1/sessions/"+token, nil)
	if state := body["step"].(map[string]any)["state"]; status != http.StatusOK || state != "grouping_question" {
		t.Fatalf("resume on B: status %d state %v, want the second question", status, state)
	}
	answerFig1(t, b.URL, token, answers, 1, 2)

	_, c := walReplica(t, dir)
	status, body = api(t, "GET", c.URL+"/v1/sessions/"+token, nil)
	if status != http.StatusOK {
		t.Fatalf("resume on C: status %d body %v", status, body)
	}
	answerFig1(t, c.URL, token, answers, 2, len(answers))
	status, result := api(t, "GET", c.URL+"/v1/sessions/"+token+"/result", nil)
	if status != http.StatusOK {
		t.Fatalf("result on C: status %d body %v", status, result)
	}
	texts := result["mappings"].([]any)
	if len(texts) != len(wantMappings) {
		t.Fatalf("result has %d mappings, want %d", len(texts), len(wantMappings))
	}
	for i, m := range texts {
		if got := m.(map[string]any)["text"].(string); got != wantMappings[i] {
			t.Fatalf("mapping %d diverged:\n%s\nwant:\n%s", i, got, wantMappings[i])
		}
	}
}

// walReplica boots one manager and server over a fresh walstore.Open
// of dir, as a replica sharing the WAL directory would.
func walReplica(t *testing.T, dir string) (*server.Manager, *httptest.Server) {
	t.Helper()
	ws, _, err := walstore.Open(dir, walstore.Options{Fsync: false})
	if err != nil {
		t.Fatal(err)
	}
	mg := server.NewManager(server.Builtin(), obs.New())
	mg.Store = ws
	ts := httptest.NewServer(server.New(mg))
	t.Cleanup(func() { ts.Close(); mg.Close(); ws.Close() })
	return mg, ts
}

// countDone counts the done records in token's log.
func countDone(t *testing.T, dir, token string) int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, token+".wal"))
	if err != nil {
		t.Fatal(err)
	}
	return strings.Count(string(data), `"r":{"op":"done"}`)
}

// TestTornTailResumesEarlier: a crash mid-append loses only the final,
// never-acknowledged record; the dialog resumes one answer back.
func TestTornTailResumesEarlier(t *testing.T) {
	answers, _ := fig1Answers(t)
	dir := t.TempDir()
	ws, _, err := walstore.Open(dir, walstore.Options{Fsync: false})
	if err != nil {
		t.Fatal(err)
	}
	mg := server.NewManager(server.Builtin(), obs.New())
	mg.Store = ws
	ts := httptest.NewServer(server.New(mg))

	token := createFig1(t, ts.URL)
	answerFig1(t, ts.URL, token, answers, 0, 2)
	status, afterTwo := rawStep(t, "GET", ts.URL+"/v1/sessions/"+token, "")
	if status != http.StatusOK {
		t.Fatal("question fetch failed")
	}
	answerFig1(t, ts.URL, token, answers, 2, 3)

	ts.Close()
	mg.Close()
	ws.Close()

	// Shear the log mid-record: the third answer's line loses its tail.
	path := filepath.Join(dir, token+".wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}

	ws2, stats, err := walstore.Open(dir, walstore.Options{Fsync: false})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TornTails != 1 || stats.Sessions != 1 {
		t.Fatalf("recovery stats = %+v, want 1 torn tail", stats)
	}
	mg2 := server.NewManager(server.Builtin(), obs.New())
	mg2.Store = ws2
	ts2 := httptest.NewServer(server.New(mg2))
	t.Cleanup(ts2.Close)
	t.Cleanup(mg2.Close)

	// The resumed state is the two-answer state, byte-identical to the
	// question the client saw after its second (acknowledged) answer.
	status, resumed := rawStep(t, "GET", ts2.URL+"/v1/sessions/"+token, "")
	if status != http.StatusOK {
		t.Fatalf("resume after torn tail: status %d body %s", status, resumed)
	}
	if string(resumed) != string(afterTwo) {
		t.Fatalf("torn-tail resume state:\n%s\nwant the two-answer question:\n%s", resumed, afterTwo)
	}
}

// TestCorruptTokenGone: mid-file corruption (a flipped byte breaking a
// checksum before good records) makes the token unrecoverable — the
// API says 410 gone, not 404 or a silent wrong answer.
func TestCorruptTokenGone(t *testing.T) {
	answers, _ := fig1Answers(t)
	dir := t.TempDir()
	ws, _, err := walstore.Open(dir, walstore.Options{Fsync: false})
	if err != nil {
		t.Fatal(err)
	}
	mg := server.NewManager(server.Builtin(), obs.New())
	mg.Store = ws
	ts := httptest.NewServer(server.New(mg))

	token := createFig1(t, ts.URL)
	answerFig1(t, ts.URL, token, answers, 0, 3)
	ts.Close()
	mg.Close()
	ws.Close()

	path := filepath.Join(dir, token+".wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := len(data) / 3
	for data[i] == '\n' {
		i++
	}
	data[i] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	ws2, stats, err := walstore.Open(dir, walstore.Options{Fsync: false})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Corrupt != 1 {
		t.Fatalf("recovery stats = %+v, want 1 corrupt", stats)
	}
	mg2 := server.NewManager(server.Builtin(), obs.New())
	mg2.Store = ws2
	ts2 := httptest.NewServer(server.New(mg2))
	t.Cleanup(ts2.Close)
	t.Cleanup(mg2.Close)

	status, body := api(t, "GET", ts2.URL+"/v1/sessions/"+token, nil)
	if status != http.StatusGone {
		t.Fatalf("corrupt token: status %d body %v, want 410", status, body)
	}
	if body["code"] != "gone" {
		t.Fatalf("corrupt token: code %v, want \"gone\"", body["code"])
	}
}

// slowStore gates Load so a test can hold a resume mid-rebuild.
type slowStore struct {
	server.SessionStore
	enter chan struct{} // closed-by-send when Load begins
	gate  chan struct{} // Load blocks until this closes
}

func (s *slowStore) Load(token string) (server.StoredSession, bool, error) {
	s.enter <- struct{}{}
	<-s.gate
	return s.SessionStore.Load(token)
}

// TestConcurrentResumeBusy: two requests hit an evicted token at once;
// the first rebuilds, the second must see the ordinary busy=409
// TryLock contract (never a duplicate replay or a deadlock).
func TestConcurrentResumeBusy(t *testing.T) {
	ms := server.NewMemStore()
	const token = "feedfacefeedfacefeedfacefeedface"
	if err := ms.Create(token, "fig1"); err != nil {
		t.Fatal(err)
	}
	if err := ms.Append(token, "fig1", 1, core.Answer{Scenario: 2}); err != nil {
		t.Fatal(err)
	}
	slow := &slowStore{SessionStore: ms, enter: make(chan struct{}, 1), gate: make(chan struct{})}
	mg := server.NewManager(server.Builtin(), obs.New())
	mg.Store = slow
	t.Cleanup(mg.Close)

	var wg sync.WaitGroup
	wg.Add(1)
	var sess *server.Session
	var resumeErr error
	go func() {
		defer wg.Done()
		sess, resumeErr = mg.Acquire(context.Background(), token)
	}()
	<-slow.enter // the resumer holds the placeholder and sits in Load

	if _, err := mg.Acquire(context.Background(), token); !errors.Is(err, server.ErrSessionBusy) {
		t.Fatalf("concurrent resume: err = %v, want ErrSessionBusy", err)
	}

	close(slow.gate)
	wg.Wait()
	if resumeErr != nil {
		t.Fatalf("first resume failed: %v", resumeErr)
	}
	if sess.Stepper.Accepted() != 1 {
		t.Fatalf("resumed stepper has %d accepted answers, want 1", sess.Stepper.Accepted())
	}
	sess.Release()

	// Released, the session is ordinarily acquirable — live, no second
	// resume.
	again, err := mg.Acquire(context.Background(), token)
	if err != nil {
		t.Fatal(err)
	}
	again.Release()
	if got := mg.Obs.Registry().Counter(obs.MSrvResumes).Value(); got != 1 {
		t.Fatalf("resume counter = %d, want exactly 1", got)
	}
}

// TestRejectedAnswerNotPersisted: an answer bounced with
// ErrInvalidAnswer must never reach the session store. The write-
// through in Manager.Answer appends only when Stepper.Accepted grew;
// this test holds it there: reject an answer mid-dialog, kill the
// replica without a graceful close, and require the rebooted replica
// to replay only the accepted answers and re-pose the same pending
// question byte-identically.
func TestRejectedAnswerNotPersisted(t *testing.T) {
	answers, _ := fig1Answers(t)
	dir := t.TempDir()

	ws, _, err := walstore.Open(dir, walstore.Options{Fsync: false})
	if err != nil {
		t.Fatal(err)
	}
	mg := server.NewManager(server.Builtin(), obs.New())
	mg.Store = ws
	ts := httptest.NewServer(server.New(mg))

	token := createFig1(t, ts.URL)
	const accepted = 3
	answerFig1(t, ts.URL, token, answers, 0, accepted)

	// An out-of-range scenario must bounce without advancing the dialog.
	status, body := api(t, "POST", ts.URL+"/v1/sessions/"+token+"/answer",
		map[string]any{"scenario": 7})
	if status != http.StatusUnprocessableEntity || body["code"] != "invalid_answer" {
		t.Fatalf("invalid answer: status %d body %v, want 422 invalid_answer", status, body)
	}
	status, pending := rawStep(t, "GET", ts.URL+"/v1/sessions/"+token, "")
	if status != http.StatusOK {
		t.Fatalf("pending question after rejection: status %d", status)
	}

	// Kill the replica: no graceful shutdown between rejection and
	// inspection, so anything wrongly written would be on disk now.
	ts.Close()
	mg.Close()
	ws.Close()

	ws2, stats, err := walstore.Open(dir, walstore.Options{Fsync: false})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sessions != 1 || stats.Corrupt != 0 || stats.TornTails != 0 {
		t.Fatalf("recovery stats = %+v", stats)
	}
	ss, ok, err := ws2.Load(token)
	if err != nil || !ok {
		t.Fatalf("Load(%s): ok=%v err=%v", token, ok, err)
	}
	if len(ss.Answers) != accepted {
		t.Fatalf("store holds %d answers, want %d (rejected answer persisted?)", len(ss.Answers), accepted)
	}

	mg2 := server.NewManager(server.Builtin(), obs.New())
	mg2.Store = ws2
	ts2 := httptest.NewServer(server.New(mg2))
	t.Cleanup(ts2.Close)
	t.Cleanup(mg2.Close)

	status, replayed := rawStep(t, "GET", ts2.URL+"/v1/sessions/"+token, "")
	if status != http.StatusOK {
		t.Fatalf("pending question after restart: status %d body %s", status, replayed)
	}
	if string(pending) != string(replayed) {
		t.Fatalf("replayed dialog poses a different question:\n--- before kill ---\n%s\n--- replayed ---\n%s", pending, replayed)
	}
}
