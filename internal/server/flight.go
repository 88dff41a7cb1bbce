package server

import (
	"net/http"
	"sync"
	"time"

	"muse/internal/obs"
)

// DefaultSlowThreshold is the flight recorder's capture threshold when
// the operator does not choose one: roughly the p99 of the seeded
// museload workload on the reference box (BENCH_server_baseline.json
// post-pass p99 ≈ 40ms, with headroom for cold starts), so the ring
// holds genuine outliers, not the steady state.
const DefaultSlowThreshold = 250 * time.Millisecond

// DefaultSlowCap bounds how many slow steps the recorder retains.
const DefaultSlowCap = 64

// SlowStep is one flight-recorded request: the identifying metadata
// plus the complete span tree captured while it ran (chase, query —
// with planner Explain output when detail was on — stepper and handler
// spans, all sharing one trace id).
type SlowStep struct {
	RequestID string           `json:"request_id"`
	TraceID   string           `json:"trace_id"`
	Route     string           `json:"route"`
	Token     string           `json:"token,omitempty"`
	Scenario  string           `json:"scenario,omitempty"`
	Status    int              `json:"status"`
	Start     time.Time        `json:"start"`
	DurNS     int64            `json:"dur_ns"`
	Dropped   int              `json:"spans_dropped,omitempty"`
	Spans     []obs.SpanRecord `json:"spans"`
}

// FlightRecorder keeps the last N steps whose wall time met a
// threshold, in a bounded ring like the tracer's: recording never
// blocks serving and memory is capped no matter how bad the tail gets.
// The nil recorder is off (Offer refuses everything).
type FlightRecorder struct {
	threshold time.Duration
	mu        sync.Mutex
	ring      []SlowStep
	next      int
	size      int
	captured  int64
}

// NewFlightRecorder returns a recorder capturing steps at least
// threshold slow (0 captures every step — the smoke test's lever;
// negative disables capture) keeping the last ringCap of them
// (DefaultSlowCap when <= 0).
func NewFlightRecorder(threshold time.Duration, ringCap int) *FlightRecorder {
	if ringCap <= 0 {
		ringCap = DefaultSlowCap
	}
	return &FlightRecorder{threshold: threshold, ring: make([]SlowStep, ringCap)}
}

// Threshold returns the capture threshold.
func (f *FlightRecorder) Threshold() time.Duration {
	if f == nil {
		return 0
	}
	return f.threshold
}

// Offer records the step if it is slow enough, reporting whether it
// was captured.
func (f *FlightRecorder) Offer(st SlowStep) bool {
	if f == nil || f.threshold < 0 || time.Duration(st.DurNS) < f.threshold {
		return false
	}
	f.mu.Lock()
	f.ring[f.next] = st
	f.next = (f.next + 1) % len(f.ring)
	if f.size < len(f.ring) {
		f.size++
	}
	f.captured++
	f.mu.Unlock()
	return true
}

// Steps returns the retained slow steps, most recent first, plus the
// total captured over the recorder's lifetime (including overwritten
// ones).
func (f *FlightRecorder) Steps() ([]SlowStep, int64) {
	if f == nil {
		return nil, 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]SlowStep, 0, f.size)
	for i := 1; i <= f.size; i++ {
		out = append(out, f.ring[(f.next-i+len(f.ring))%len(f.ring)])
	}
	return out, f.captured
}

// handleDebugSlow serves GET /debug/slow: the retained slow steps as
// JSON, newest first, with the active threshold so a reader knows what
// "slow" meant.
func (s *Server) handleDebugSlow(w http.ResponseWriter, r *http.Request) {
	if s.Flight == nil {
		writeError(w, http.StatusNotFound, "no_flight_recorder", errNoFlight)
		return
	}
	steps, captured := s.Flight.Steps()
	writeJSON(w, http.StatusOK, struct {
		ThresholdNS int64      `json:"threshold_ns"`
		Captured    int64      `json:"captured"`
		Steps       []SlowStep `json:"steps"`
	}{int64(s.Flight.Threshold()), captured, steps})
}
