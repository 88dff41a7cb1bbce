package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"muse/internal/core"
	"muse/internal/obs"
)

// MaxBodyBytes bounds every request body; answers and session specs
// are tiny, so anything past this is a client error (413).
const MaxBodyBytes = 1 << 20

// Server is the HTTP front of a Manager. Zero-configuration use:
//
//	srv := server.New(server.NewManager(scenarios, o))
//	http.ListenAndServe(addr, srv)
//
// Routes (docs/API.md is the full reference):
//
//	POST   /v1/sessions               start a session  {"scenario": name}
//	GET    /v1/sessions/{token}       pending question / terminal state
//	POST   /v1/sessions/{token}/answer submit an answer, returns next step
//	GET    /v1/sessions/{token}/result terminal mappings (409 while running)
//	DELETE /v1/sessions/{token}       close the session
//	GET    /healthz                    liveness
//	GET    /metrics                    Prometheus text exposition
type Server struct {
	Manager *Manager
	// Flight records slow steps with their span trees, served at
	// GET /debug/slow. New installs a default recorder
	// (DefaultSlowThreshold / DefaultSlowCap); set nil to disable, or
	// replace before serving to tune.
	Flight *FlightRecorder
	// Access, when set, receives one JSONL line per served request.
	Access *AccessLog
	mux    *http.ServeMux
}

// Route names: logical labels for access-log lines and slow-step
// records (Go 1.22's ServeMux has no request-side pattern accessor, so
// the registration wrapper pins them).
const (
	routeCreate   = "create"
	routeQuestion = "question"
	routeAnswer   = "answer"
	routeResult   = "result"
	routeDelete   = "delete"
	routeHealthz  = "healthz"
	routeMetrics  = "metrics"
	routeSlow     = "debug_slow"
)

// stepRoute reports whether the route produces a wizard step (the
// routes the step-latency histogram and the flight recorder cover).
func stepRoute(route string) bool {
	return route == routeCreate || route == routeQuestion || route == routeAnswer
}

// New wires the routes over the manager.
func New(mg *Manager) *Server {
	s := &Server{
		Manager: mg,
		Flight:  NewFlightRecorder(DefaultSlowThreshold, DefaultSlowCap),
		mux:     http.NewServeMux(),
	}
	s.handle("POST /v1/sessions", routeCreate, s.handleCreate)
	s.handle("GET /v1/sessions/{token}", routeQuestion, s.handleQuestion)
	s.handle("POST /v1/sessions/{token}/answer", routeAnswer, s.handleAnswer)
	s.handle("GET /v1/sessions/{token}/result", routeResult, s.handleResult)
	s.handle("DELETE /v1/sessions/{token}", routeDelete, s.handleDelete)
	s.handle("GET /healthz", routeHealthz, s.handleHealthz)
	s.handle("GET /metrics", routeMetrics, s.handleMetrics)
	s.handle("GET /debug/slow", routeSlow, s.handleDebugSlow)
	return s
}

// handle registers h under pattern, stamping the logical route name on
// the response writer so ServeHTTP's bookkeeping knows which handler
// matched.
func (s *Server) handle(pattern, route string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if sw, ok := w.(*statusWriter); ok {
			sw.route = route
		}
		h(w, r)
	})
}

// statusWriter wraps the response writer to capture the status code
// and carry per-request metadata (request id, matched route, session)
// between the middleware in ServeHTTP and the handlers.
type statusWriter struct {
	http.ResponseWriter
	status    int
	requestID string
	route     string
	token     string
	scenario  string
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// noteSession stamps the session's token and scenario on the response
// writer for the access log and the flight recorder.
func noteSession(w http.ResponseWriter, sess *Session) {
	if sw, ok := w.(*statusWriter); ok {
		sw.token, sw.scenario = sess.Token, sess.ScenarioName
	}
}

var errNoFlight = errors.New("server: flight recorder disabled")

// ServeHTTP implements http.Handler. Every request gets a request id
// (client-supplied or minted, echoed in the RequestIDHeader) and,
// when the manager is traced, a root server.request span whose trace
// context flows through the handler into the stepper and the engines
// beneath it.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	mg := s.Manager
	mg.mRequests.Inc()
	rid := requestID(r)
	sw := &statusWriter{ResponseWriter: w, requestID: rid}
	sw.Header().Set(RequestIDHeader, rid)
	r.Body = http.MaxBytesReader(sw, r.Body, MaxBodyBytes)

	start := time.Now()
	tr := mg.tracer()
	var sp *obs.Span
	var col *obs.SpanCollector
	if tr != nil {
		tc := obs.NewTraceContext()
		if s.Flight != nil {
			// Capture the request's spans as they finish — the shared
			// ring may wrap under load before we decide the step was
			// slow — and ask for expensive diagnostics (query Explain).
			col = obs.NewSpanCollector(0)
			tc = tc.WithCollector(col).WithDetail(true)
		}
		ctx := obs.ContextWithTrace(r.Context(), tc)
		sp, ctx = tr.StartCtx(ctx, obs.SpanSrvRequest)
		r = r.WithContext(ctx)
	}

	s.mux.ServeHTTP(sw, r)

	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	if sw.status >= http.StatusBadRequest {
		mg.mErrors.Inc()
	}
	dur := time.Since(start)
	if stepRoute(sw.route) && sw.scenario != "" {
		mg.scenarioStep(sw.scenario)
	}
	if sp != nil {
		sp.Attr("route", sw.route).Attr("status", sw.status).Attr("request_id", rid)
		traceID := sp.TraceID()
		sp.End()
		if s.Flight != nil && stepRoute(sw.route) {
			spans, dropped := col.Spans()
			if s.Flight.Offer(SlowStep{
				RequestID: rid, TraceID: traceID, Route: sw.route,
				Token: sw.token, Scenario: sw.scenario, Status: sw.status,
				Start: start, DurNS: dur.Nanoseconds(), Dropped: dropped, Spans: spans,
			}) {
				mg.mSlow.Inc()
			}
		}
	}
	if s.Access != nil {
		s.Access.log(accessEntry{
			Time:      start.UTC().Format(time.RFC3339Nano),
			RequestID: rid,
			Method:    r.Method,
			Route:     sw.route,
			Path:      r.URL.Path,
			Token:     sw.token,
			Scenario:  sw.scenario,
			Status:    sw.status,
			DurNS:     dur.Nanoseconds(),
		})
	}
}

// writeError writes the uniform error body: {"error", "code"} plus
// the request id (when the middleware stamped one) so a failing call
// is correlatable from the body alone.
func writeError(w http.ResponseWriter, status int, code string, err error) {
	body := map[string]any{"error": err.Error(), "code": code}
	if sw, ok := w.(*statusWriter); ok && sw.requestID != "" {
		body["request_id"] = sw.requestID
	}
	writeJSON(w, status, body)
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body) // nothing to do about a failed write
}

// writeDecodeError maps a request-body decode failure: an oversized
// body (the MaxBytesReader tripped) is 413 too_large, anything else is
// 400 bad_json.
func writeDecodeError(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge, "too_large", err)
		return
	}
	writeError(w, http.StatusBadRequest, "bad_json", err)
}

// mapManagerErr translates manager errors to HTTP status + code.
func mapManagerErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrNoSession):
		writeError(w, http.StatusNotFound, "no_session", err)
	case errors.Is(err, ErrNoScenario):
		writeError(w, http.StatusNotFound, "no_scenario", err)
	case errors.Is(err, ErrFull):
		writeError(w, http.StatusServiceUnavailable, "full", err)
	case errors.Is(err, ErrSessionBusy):
		writeError(w, http.StatusConflict, "busy", err)
	case errors.Is(err, ErrGone):
		// The token's durable state exists but cannot be resumed
		// (corrupt record, unserved scenario): permanently lost, start a
		// new session.
		writeError(w, http.StatusGone, "gone", err)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client's context died while a resume was replaying.
		writeError(w, http.StatusGatewayTimeout, "cancelled", err)
	default:
		writeError(w, http.StatusInternalServerError, "internal", err)
	}
}

// step runs one Stepper call under the request context and writes the
// result, marking terminal dialogs in the metrics. The body is built
// by the direct renderer (render_direct.go) in a pooled buffer —
// byte-identical to the map-tree encoding of the reference renderer
// (render_ref_test.go's stepBody), without the tree or the reflection.
func (s *Server) writeStep(w http.ResponseWriter, sess *Session, step core.Step, status int) {
	if step.Done {
		sess.MarkFinished(s.Manager)
	}
	jw := getJW()
	appendStepBody(jw, sess, step)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(jw.bytes()) // nothing to do about a failed write
	putJW(jw)
}

// observeStep records the wall time one step-producing request took —
// wizard work plus rendering — on the muse_server_step_seconds
// histogram museload and operators read p50/p95/p99 from.
func (s *Server) observeStep(start time.Time) {
	s.Manager.hStep.Observe(time.Since(start).Seconds())
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	defer s.observeStep(time.Now())
	var req struct {
		Scenario string `json:"scenario"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeDecodeError(w, fmt.Errorf("server: decoding request: %w", err))
		return
	}
	sess, err := s.Manager.Create(r.Context(), req.Scenario)
	if err != nil {
		mapManagerErr(w, err)
		return
	}
	noteSession(w, sess)
	defer sess.Release()
	step, err := sess.Stepper.Step(r.Context())
	if err != nil {
		writeError(w, http.StatusGatewayTimeout, "cancelled", err)
		return
	}
	s.writeStep(w, sess, step, http.StatusCreated)
}

func (s *Server) handleQuestion(w http.ResponseWriter, r *http.Request) {
	defer s.observeStep(time.Now())
	sess, err := s.Manager.Acquire(r.Context(), r.PathValue("token"))
	if err != nil {
		mapManagerErr(w, err)
		return
	}
	noteSession(w, sess)
	defer sess.Release()
	step, err := sess.Stepper.Step(r.Context())
	if err != nil {
		writeError(w, http.StatusGatewayTimeout, "cancelled", err)
		return
	}
	s.writeStep(w, sess, step, http.StatusOK)
}

func (s *Server) handleAnswer(w http.ResponseWriter, r *http.Request) {
	defer s.observeStep(time.Now())
	var req struct {
		Scenario int     `json:"scenario"`
		Choices  [][]int `json:"choices"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeDecodeError(w, fmt.Errorf("server: decoding answer: %w", err))
		return
	}
	sess, err := s.Manager.Acquire(r.Context(), r.PathValue("token"))
	if err != nil {
		mapManagerErr(w, err)
		return
	}
	noteSession(w, sess)
	defer sess.Release()
	step, err := s.Manager.Answer(r.Context(), sess, core.Answer{Scenario: req.Scenario, Choices: req.Choices})
	switch {
	case errors.Is(err, core.ErrInvalidAnswer):
		s.Manager.mInvalid.Inc()
		writeError(w, http.StatusUnprocessableEntity, "invalid_answer", err)
		return
	case err != nil:
		writeError(w, http.StatusGatewayTimeout, "cancelled", err)
		return
	}
	s.Manager.mAnswers.Inc()
	s.writeStep(w, sess, step, http.StatusOK)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	sess, err := s.Manager.Acquire(r.Context(), r.PathValue("token"))
	if err != nil {
		mapManagerErr(w, err)
		return
	}
	noteSession(w, sess)
	defer sess.Release()
	if !sess.Stepper.Done() {
		writeError(w, http.StatusConflict, "not_done", errors.New("server: session still has pending questions"))
		return
	}
	step := sess.Stepper.Result()
	sess.MarkFinished(s.Manager)
	jw := getJW()
	appendResult(jw, sess, step)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(jw.bytes()) // nothing to do about a failed write
	putJW(jw)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.Manager.Delete(r.PathValue("token")); err != nil {
		mapManagerErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"deleted": true})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"sessions": s.Manager.Len(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.Manager.reg().WriteText(w)
}
