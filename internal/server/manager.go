package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"muse/internal/core"
	"muse/internal/deps"
	"muse/internal/instance"
	"muse/internal/mapping"
	"muse/internal/obs"
	"muse/internal/query"
)

// Scenario is one design problem the server can host sessions over:
// the mapping set under design, plus the optional source constraints
// and real instance the wizards draw examples from. All sessions of a
// scenario share one index store over Real, so retrieval indexes are
// built once per server, not once per session.
type Scenario struct {
	// Deps holds the source constraints (may be nil).
	Deps *deps.Set
	// Real is the source instance examples come from (may be nil:
	// always synthetic examples).
	Real *instance.Instance
	// Set is the (possibly ambiguous) mapping set to refine.
	Set *mapping.Set

	storeOnce sync.Once
	store     *query.IndexStore
}

// sharedStore returns the scenario's index store, built lazily on the
// first session (or eagerly by Manager.Prime).
func (sc *Scenario) sharedStore() *query.IndexStore {
	sc.storeOnce.Do(func() {
		if sc.Real != nil {
			sc.store = query.NewIndexStore(sc.Real)
		}
	})
	return sc.store
}

// Errors the Manager reports; the HTTP layer maps them to status
// codes (404, 503).
var (
	ErrNoSession   = errors.New("server: no such session")
	ErrFull        = errors.New("server: session limit reached and every session is busy")
	ErrNoScenario  = errors.New("server: no such scenario")
	ErrSessionBusy = errors.New("server: session is processing another request")
)

// Session is one live wizard dialog: a core.Stepper plus the
// bookkeeping the manager needs. Handlers must hold mu across every
// Stepper call (acquire tries a TryLock so a busy session answers 409
// instead of queueing).
//
// During a store resume the session is briefly registered as a locked
// placeholder with a nil Stepper; concurrent acquires of the token see
// it busy (409), exactly as if the first resumer's request were
// already being served.
type Session struct {
	// Token addresses the session; 16 random bytes, hex-encoded.
	Token string
	// ScenarioName is the scenario the session designs.
	ScenarioName string
	// Stepper holds the dialog state (nil only while a resume is
	// rebuilding it; the placeholder is locked for that whole window).
	Stepper *core.Stepper
	// Created is the creation time.
	Created time.Time

	mu sync.Mutex
	// lastUsed is the unix-nano time of the last acquire, stored
	// atomically: lookups refresh it under the manager's read lock, and
	// eviction scans read it without per-session coordination.
	lastUsed atomic.Int64
	// finished flips once (under mu) when the dialog reaches a terminal
	// step, so the finished counter counts dialogs, not polls.
	finished bool
}

// Release returns the session to the manager after an acquire.
func (s *Session) Release() { s.mu.Unlock() }

// MarkFinished records the dialog's terminal step once; further calls
// are no-ops. With a store attached the token is marked complete
// (best-effort: a failed Complete leaves a log that replays to the
// same terminal step, only without Done). Call with the session
// acquired.
func (s *Session) MarkFinished(mg *Manager) {
	if !s.finished {
		s.finished = true
		mg.mFinished.Inc()
		if mg.Store != nil {
			mg.Store.Complete(s.Token)
		}
	}
}

// Manager owns the live sessions of a server: creation, token lookup,
// deletion, and the two bounds — a maximum session count with
// least-recently-used eviction, and an idle TTL. TTL sweeps are
// amortized: at most one per TTL/8 (capped at 5s) across all
// requests, so the lookup fast path stays on the read lock; an
// expired session is therefore reclaimed on the first sweep after its
// TTL lapses, not at the exact instant. Only idle sessions (their
// per-session lock is free) are ever evicted; a full manager whose
// sessions are all busy refuses creations with ErrFull.
type Manager struct {
	// MaxSessions bounds the live session count (default
	// DefaultMaxSessions).
	MaxSessions int
	// TTL is the idle lifetime; sessions untouched for longer are
	// evicted on the next sweep (default DefaultTTL). Zero or negative
	// disables expiry.
	TTL time.Duration
	// Scenarios maps scenario names to their design problems.
	Scenarios map[string]*Scenario
	// Obs receives the muse_server_* metrics and spans; may be nil.
	Obs *obs.Obs
	// Store, when set, persists every dialog: creations and accepted
	// answers are written through (an answer is acknowledged only after
	// its Append returns), and a token miss in Acquire consults the
	// store and rebuilds the dialog by replay — so eviction is harmless
	// and, with a durable store (walstore), a restarted or different
	// replica transparently resumes mid-dialog. Nil keeps the original
	// memory-only behavior. Set before serving traffic.
	Store SessionStore
	// AutoThreshold, when positive, attaches the evidence ranker to
	// every session (created and resumed alike, so replays rebuild
	// bit-identical dialogs): question envelopes then carry per-option
	// scores and a "decisive" verdict at this confidence threshold,
	// letting clients auto-answer. Zero (the default) disables ranking
	// entirely. Set before serving traffic.
	AutoThreshold float64

	mu        sync.RWMutex
	sessions  map[string]*Session
	lastSweep atomic.Int64 // unix nanos of the last TTL sweep

	// Metric handles, resolved once in NewManager (nil-safe no-ops
	// when Obs is nil) so the request path never takes the registry's
	// mutex.
	mRequests, mStarted, mRejected, mEvicted *obs.Counter
	mAnswers, mInvalid, mErrors, mSlow       *obs.Counter
	mFinished, mResumes                      *obs.Counter
	gLive                                    *obs.Gauge
	hStep                                    *obs.Histogram
	// scSteps holds one per-scenario step counter per configured
	// scenario (labeled series under obs.MSrvScenarioSteps), resolved
	// once here; the map is never written after NewManager.
	scSteps map[string]*obs.Counter
}

// DefaultMaxSessions and DefaultTTL bound managers that don't choose.
const (
	DefaultMaxSessions = 64
	DefaultTTL         = 30 * time.Minute
)

// NewManager builds a manager over the given scenarios.
func NewManager(scenarios map[string]*Scenario, o *obs.Obs) *Manager {
	mg := &Manager{
		MaxSessions: DefaultMaxSessions,
		TTL:         DefaultTTL,
		Scenarios:   scenarios,
		Obs:         o,
		sessions:    make(map[string]*Session),
	}
	reg := mg.reg()
	mg.mRequests = reg.Counter(obs.MSrvRequests)
	mg.mStarted = reg.Counter(obs.MSrvSessionsStarted)
	mg.mRejected = reg.Counter(obs.MSrvSessionsRejected)
	mg.mEvicted = reg.Counter(obs.MSrvSessionsEvicted)
	mg.mAnswers = reg.Counter(obs.MSrvAnswers)
	mg.mInvalid = reg.Counter(obs.MSrvInvalidAnswers)
	mg.mErrors = reg.Counter(obs.MSrvErrors)
	mg.mSlow = reg.Counter(obs.MSrvSlowSteps)
	mg.mFinished = reg.Counter(obs.MSrvSessionsFinished)
	mg.mResumes = reg.Counter(obs.MSrvResumes)
	mg.gLive = reg.Gauge(obs.GSrvSessionsLive)
	mg.hStep = reg.Histogram(obs.HSrvStepSeconds, obs.SrvStepSecondsBounds...)
	mg.scSteps = make(map[string]*obs.Counter, len(scenarios))
	for name := range scenarios {
		mg.scSteps[name] = reg.Counter(obs.LabeledName(obs.MSrvScenarioSteps, "scenario", name))
	}
	return mg
}

func (mg *Manager) reg() *obs.Registry { return mg.Obs.Registry() }

// tracer returns the manager's span tracer (nil when untraced).
func (mg *Manager) tracer() *obs.Tracer {
	if mg.Obs == nil {
		return nil
	}
	return mg.Obs.Tr
}

// scenarioStep counts one served step against its scenario (no-op for
// unknown scenarios — can't happen, the session was created from the
// map).
func (mg *Manager) scenarioStep(scenario string) {
	mg.scSteps[scenario].Inc()
}

// Prime eagerly pays each scenario's first-session costs before
// traffic arrives: the scenario-wide index store is built, and a
// throwaway dialog is run up to its first question so the retrieval
// indexes behind the opening probes are warm in the shared store. The
// throwaway session is never registered (no token, no counters) and
// leaves no state beyond the warmed store. ctx bounds the warm-up
// work.
func (mg *Manager) Prime(ctx context.Context) {
	for _, sc := range mg.Scenarios {
		store := sc.sharedStore()
		cs := core.NewSession(sc.Deps, sc.Real)
		cs.Grouping.Store = store
		cs.Disambiguation.Store = store
		st := core.NewStepper(ctx, cs, sc.Set)
		_, _ = st.Step(ctx)
		st.Close()
	}
}

// newToken mints an unguessable session token.
func newToken() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("server: crypto/rand failed: %v", err)) // out of entropy: unrecoverable
	}
	return hex.EncodeToString(b[:])
}

// Create starts a session over the named scenario. The returned
// session is acquired: the caller drives the first Step and must
// Release it. ctx bounds the wizard work up to the first question.
func (mg *Manager) Create(ctx context.Context, scenario string) (*Session, error) {
	sc, ok := mg.Scenarios[scenario]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoScenario, scenario)
	}

	now := time.Now()
	mg.mu.Lock()
	defer mg.mu.Unlock()
	if mg.sweepDue(now) || len(mg.sessions) >= mg.max() {
		mg.sweepLocked(now)
	}
	if len(mg.sessions) >= mg.max() {
		if !mg.evictLRULocked() {
			mg.mRejected.Inc()
			return nil, ErrFull
		}
	}

	s := &Session{
		Token:        newToken(),
		ScenarioName: scenario,
		Created:      now,
	}
	// Persist the creation before the session exists anywhere else: a
	// crash right after the client learns the token must find it in the
	// store. The fsync cost sits under the manager lock, like the rest
	// of session setup — creations are rare next to steps.
	if mg.Store != nil {
		if err := mg.Store.Create(s.Token, scenario); err != nil {
			return nil, fmt.Errorf("server: persisting session: %w", err)
		}
	}
	s.lastUsed.Store(now.UnixNano())
	s.mu.Lock() // acquired for the caller; no contention possible yet
	s.Stepper = core.NewStepper(ctx, mg.coreSession(sc), sc.Set)
	mg.sessions[s.Token] = s
	mg.mStarted.Inc()
	mg.gLive.Set(int64(len(mg.sessions)))
	return s, nil
}

// coreSession builds the core session for a scenario the way every
// dialog — created or resumed — must be built, so a resumed replay
// sees bit-for-bit the configuration the original run had: the
// scenario-wide index store.
func (mg *Manager) coreSession(sc *Scenario) *core.Session {
	cs := core.NewSession(sc.Deps, sc.Real).Observe(mg.Obs)
	store := sc.sharedStore()
	cs.Grouping.Store = store
	cs.Disambiguation.Store = store
	if mg.AutoThreshold > 0 {
		cs.Rank(mg.AutoThreshold)
	}
	return cs
}

// Answer drives one answer through the session's stepper and, when a
// store is attached, makes the accepted answer durable before the
// caller acknowledges it to the client. The write-through keys off the
// stepper's accepted count, not the returned error: an answer the
// pipeline consumed is logged even when the work toward the next
// question then failed (request context cancelled), so the replayable
// prefix always covers everything the dialog absorbed.
func (mg *Manager) Answer(ctx context.Context, s *Session, a core.Answer) (core.Step, error) {
	before := 0
	if mg.Store != nil {
		before = s.Stepper.Accepted()
	}
	step, err := s.Stepper.Answer(ctx, a)
	if mg.Store != nil {
		if n := s.Stepper.Accepted(); n > before {
			if serr := mg.Store.Append(s.Token, s.ScenarioName, n, a); serr != nil && err == nil {
				// Memory ran ahead of the log: fail the request so the
				// client never trusts an answer the store may lose.
				return step, fmt.Errorf("server: persisting answer: %w", serr)
			}
		}
	}
	return step, err
}

// Acquire looks a session up by token and locks it for the caller,
// who must Release it. A session currently serving another request
// yields ErrSessionBusy rather than queueing, keeping the manager's
// lock out of wizard-length critical sections. Lookups share the
// manager's read lock; only a due TTL sweep takes the write lock.
//
// On a token miss with a store attached, the manager consults the
// store and rebuilds the dialog by replaying its accepted answers
// (core.ResumeStepper) under ctx — so an evicted session, or one
// created by another replica against a shared durable store, resumes
// transparently. Stored state that cannot be replayed reports ErrGone.
func (mg *Manager) Acquire(ctx context.Context, token string) (*Session, error) {
	now := time.Now()
	mg.maybeSweep(now)
	mg.mu.RLock()
	s, ok := mg.sessions[token]
	if !ok {
		mg.mu.RUnlock()
		return mg.resume(ctx, token, now)
	}
	s, err := lockLive(s, now)
	mg.mu.RUnlock()
	return s, err
}

// lockLive refreshes and try-locks a session found in the live map.
// Callers hold the manager's lock, read or write, so no eviction scan
// or TTL sweep can hold the session's lock meanwhile: a failed
// TryLock means another request is using it.
func lockLive(s *Session, now time.Time) (*Session, error) {
	s.lastUsed.Store(now.UnixNano())
	if !s.mu.TryLock() {
		return nil, ErrSessionBusy
	}
	if s.Stepper == nil {
		// A resume placeholder stays locked while it is in the map, so a
		// live lookup never gets here; the check keeps a session without
		// a dialog from ever reaching a caller.
		s.mu.Unlock()
		return nil, ErrNoSession
	}
	return s, nil
}

// resume rebuilds a session from the store after a token miss. A
// locked placeholder is registered in the live map *before* the load
// and replay, so concurrent resumes of the same token hit the ordinary
// busy=409 TryLock contract instead of racing duplicate replays; the
// capacity rules (sweep, LRU eviction, ErrFull) apply to a resumed
// session exactly as to a created one.
func (mg *Manager) resume(ctx context.Context, token string, now time.Time) (*Session, error) {
	if mg.Store == nil {
		return nil, ErrNoSession
	}
	s := &Session{Token: token, Created: now}
	s.lastUsed.Store(now.UnixNano())
	s.mu.Lock()

	mg.mu.Lock()
	if live, ok := mg.sessions[token]; ok {
		// Lost the miss race: someone registered (or resumed) the token
		// between our read-lock lookup and now.
		live, err := lockLive(live, now)
		mg.mu.Unlock()
		return live, err
	}
	if mg.sweepDue(now) || len(mg.sessions) >= mg.max() {
		mg.sweepLocked(now)
	}
	if len(mg.sessions) >= mg.max() {
		if !mg.evictLRULocked() {
			mg.mu.Unlock()
			mg.mRejected.Inc()
			return nil, ErrFull
		}
	}
	mg.sessions[token] = s
	mg.gLive.Set(int64(len(mg.sessions)))
	mg.mu.Unlock()

	st, scenario, err := mg.rebuild(ctx, token)
	if err != nil {
		mg.mu.Lock()
		if mg.sessions[token] == s {
			delete(mg.sessions, token)
			mg.gLive.Set(int64(len(mg.sessions)))
		}
		mg.mu.Unlock()
		s.mu.Unlock()
		return nil, err
	}
	s.ScenarioName = scenario
	s.Stepper = st
	mg.mResumes.Inc()
	return s, nil
}

// rebuild loads a token's stored dialog and replays it over a fresh
// core session, classifying failures: unknown token is ErrNoSession,
// a cancelled request context propagates as-is, and unreadable or
// unreplayable state — corrupt log, unknown scenario, a snapshot the
// dialog rejects — is ErrGone (410): the token is permanently lost and
// the client should start over.
func (mg *Manager) rebuild(ctx context.Context, token string) (*core.Stepper, string, error) {
	stored, ok, err := mg.Store.Load(token)
	if err != nil {
		return nil, "", fmt.Errorf("%w: %v", ErrGone, err)
	}
	if !ok {
		return nil, "", ErrNoSession
	}
	sc, ok := mg.Scenarios[stored.Scenario]
	if !ok {
		return nil, "", fmt.Errorf("%w: scenario %q is not served by this replica", ErrGone, stored.Scenario)
	}
	st, err := core.ResumeStepper(ctx, mg.coreSession(sc), sc.Set, stored.Answers)
	if err != nil {
		if ctx != nil && ctx.Err() != nil {
			return nil, "", ctx.Err()
		}
		return nil, "", fmt.Errorf("%w: replaying %d answer(s): %v", ErrGone, len(stored.Answers), err)
	}
	return st, stored.Scenario, nil
}

// Delete closes and removes a session, along with its stored state —
// DELETE is the client saying the dialog is over for good. It waits
// for an in-flight request to release the session first (Close has
// already cancelled the session's work, so the wait is short). A token
// that is not live but still stored deletes cleanly too.
func (mg *Manager) Delete(token string) error {
	mg.mu.Lock()
	s, ok := mg.sessions[token]
	if ok {
		delete(mg.sessions, token)
		mg.gLive.Set(int64(len(mg.sessions)))
	}
	mg.mu.Unlock()
	stored := false
	if mg.Store != nil {
		if found, err := mg.Store.Delete(token); err == nil && found {
			stored = true
		}
	}
	if !ok {
		if stored {
			return nil
		}
		return ErrNoSession
	}
	if s.Stepper != nil {
		s.Stepper.Close()
	}
	s.mu.Lock() // drain any in-flight handler (or resume) on the session
	if s.Stepper != nil {
		s.Stepper.Close() // a resume finished while we waited
	}
	s.mu.Unlock()
	return nil
}

// Close tears down every session; used at server shutdown after the
// HTTP listener has drained.
func (mg *Manager) Close() {
	mg.mu.Lock()
	all := make([]*Session, 0, len(mg.sessions))
	for _, s := range mg.sessions {
		all = append(all, s)
	}
	mg.sessions = make(map[string]*Session)
	mg.gLive.Set(0)
	mg.mu.Unlock()
	for _, s := range all {
		if s.Stepper != nil {
			s.Stepper.Close()
		}
	}
}

// Len reports the live session count.
func (mg *Manager) Len() int {
	mg.mu.RLock()
	defer mg.mu.RUnlock()
	return len(mg.sessions)
}

func (mg *Manager) max() int {
	if mg.MaxSessions > 0 {
		return mg.MaxSessions
	}
	return DefaultMaxSessions
}

// sweepInterval is the amortization period between TTL sweeps: a
// fraction of the TTL so expiry stays timely, capped so very long
// TTLs still reclaim memory promptly.
func (mg *Manager) sweepInterval() time.Duration {
	iv := mg.TTL / 8
	if iv > 5*time.Second {
		iv = 5 * time.Second
	}
	return iv
}

func (mg *Manager) sweepDue(now time.Time) bool {
	return mg.TTL > 0 && now.UnixNano()-mg.lastSweep.Load() >= int64(mg.sweepInterval())
}

// maybeSweep runs a TTL sweep when one is due. A CAS on the sweep
// stamp elects a single sweeper, so concurrent lookups never pile up
// behind the write lock.
func (mg *Manager) maybeSweep(now time.Time) {
	if mg.TTL <= 0 {
		return
	}
	last := mg.lastSweep.Load()
	if now.UnixNano()-last < int64(mg.sweepInterval()) {
		return
	}
	if !mg.lastSweep.CompareAndSwap(last, now.UnixNano()) {
		return
	}
	mg.mu.Lock()
	mg.sweepLocked(now)
	mg.mu.Unlock()
}

// sweepLocked evicts idle sessions whose TTL has lapsed and stamps the
// sweep time. Busy sessions are skipped: their lastUsed refreshes on
// the next Acquire, and a session cannot be torn down mid-request.
func (mg *Manager) sweepLocked(now time.Time) {
	mg.lastSweep.Store(now.UnixNano())
	if mg.TTL <= 0 {
		return
	}
	ttl := int64(mg.TTL)
	for token, s := range mg.sessions {
		if now.UnixNano()-s.lastUsed.Load() < ttl {
			continue
		}
		if !s.mu.TryLock() {
			continue // busy: not idle, not evictable
		}
		// Eviction only drops the in-memory dialog; with a store attached
		// the token's state remains and the next Acquire resumes it.
		delete(mg.sessions, token)
		s.Stepper.Close()
		s.mu.Unlock()
		mg.mEvicted.Inc()
	}
	mg.gLive.Set(int64(len(mg.sessions)))
}

// evictLRULocked drops the least recently used idle session, reporting
// whether it made room. The true LRU may be busy, in which case the
// next oldest idle session goes; all busy means no room. The common
// case — the oldest session is idle — is a single allocation-free
// scan; only busy LRU candidates cost another pass.
func (mg *Manager) evictLRULocked() bool {
	var skip map[*Session]bool
	for {
		var victim *Session
		var vts int64
		for _, s := range mg.sessions {
			if skip[s] {
				continue
			}
			if ts := s.lastUsed.Load(); victim == nil || ts < vts {
				victim, vts = s, ts
			}
		}
		if victim == nil {
			return false
		}
		if victim.mu.TryLock() {
			delete(mg.sessions, victim.Token)
			victim.Stepper.Close()
			victim.mu.Unlock()
			mg.mEvicted.Inc()
			mg.gLive.Set(int64(len(mg.sessions)))
			return true
		}
		if skip == nil {
			skip = make(map[*Session]bool)
		}
		skip[victim] = true
	}
}
