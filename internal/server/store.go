package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"muse/internal/core"
)

// ErrGone marks a token whose durable state exists but cannot be
// trusted or replayed — a corrupt WAL record, a scenario this replica
// does not serve, or a snapshot the dialog rejects. The HTTP layer
// maps it to 410 gone: unlike 404 (never heard of it), the token is
// permanently unrecoverable and the client should start over.
var ErrGone = errors.New("server: session state unrecoverable")

// StoredSession is one dialog's durable state: everything a fresh
// replica needs to rebuild it by replay (core.ResumeStepper).
type StoredSession struct {
	// Scenario names the design problem the dialog runs over.
	Scenario string
	// Answers is the ordered accepted-answer prefix.
	Answers []core.Answer
	// Done records that the dialog reached a terminal step (Complete);
	// a resume still replays every answer to reach it. It stays set if
	// answers follow: a dialog whose terminal step was a cancelled
	// request replays to its next pending question and goes on.
	Done bool
}

// SessionStore persists dialog state beyond a session's in-memory
// life, so eviction is harmless and any replica can resume any token.
// The manager calls it with the session serialized (per-token calls
// never race each other); implementations only need to be safe across
// tokens. Durability contract: Append must not return before the
// record is durable at the store's configured level — the manager
// acknowledges an answer to the client only after Append succeeds.
type SessionStore interface {
	// Create registers a new token. It fails if the token exists.
	Create(token, scenario string) error
	// Append logs the seq-th accepted answer (1-based, contiguous).
	Append(token, scenario string, seq int, a core.Answer) error
	// Load returns the stored dialog, reporting whether the token is
	// known. A store that finds state it cannot trust returns an error
	// (mapped to ErrGone by the manager).
	Load(token string) (StoredSession, bool, error)
	// Complete marks the dialog terminal; calling it again is harmless.
	// The state stays loadable (a client may still fetch the result
	// after a restart) until Delete.
	Complete(token string) error
	// Delete drops the token's state, reporting whether it existed.
	Delete(token string) (bool, error)
	// Tokens lists every stored token (boot-time recovery scans).
	Tokens() ([]string, error)
	// Close flushes and releases the store's resources.
	Close() error
}

// MemStore is the in-process SessionStore: dialog state survives LRU
// or TTL eviction (a re-presented token resumes by replay) but not a
// process restart. It is the `musesrv -store mem` default. Entries
// live until Delete — the manager deletes on client DELETE, and
// operators size -max-sessions for the working set, not the store.
type MemStore struct {
	mu       sync.RWMutex
	sessions map[string]*memSession
}

type memSession struct {
	scenario string
	answers  []core.Answer
	done     bool
}

// NewMemStore builds an empty in-memory session store.
func NewMemStore() *MemStore {
	return &MemStore{sessions: make(map[string]*memSession)}
}

// Create implements SessionStore.
func (ms *MemStore) Create(token, scenario string) error {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if _, ok := ms.sessions[token]; ok {
		return fmt.Errorf("server: memstore: token %q already exists", token)
	}
	ms.sessions[token] = &memSession{scenario: scenario}
	return nil
}

// Append implements SessionStore.
func (ms *MemStore) Append(token, scenario string, seq int, a core.Answer) error {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	s, ok := ms.sessions[token]
	if !ok {
		return fmt.Errorf("server: memstore: append to unknown token %q", token)
	}
	if seq != len(s.answers)+1 {
		return fmt.Errorf("server: memstore: answer seq %d for token %q, want %d", seq, token, len(s.answers)+1)
	}
	s.answers = append(s.answers, cloneStoredAnswer(a))
	return nil
}

// Load implements SessionStore.
func (ms *MemStore) Load(token string) (StoredSession, bool, error) {
	ms.mu.RLock()
	defer ms.mu.RUnlock()
	s, ok := ms.sessions[token]
	if !ok {
		return StoredSession{}, false, nil
	}
	out := StoredSession{Scenario: s.scenario, Done: s.done,
		Answers: make([]core.Answer, len(s.answers))}
	for i, a := range s.answers {
		out.Answers[i] = cloneStoredAnswer(a)
	}
	return out, true, nil
}

// Complete implements SessionStore.
func (ms *MemStore) Complete(token string) error {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if s, ok := ms.sessions[token]; ok {
		s.done = true
	}
	return nil
}

// Delete implements SessionStore.
func (ms *MemStore) Delete(token string) (bool, error) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if _, ok := ms.sessions[token]; !ok {
		return false, nil
	}
	delete(ms.sessions, token)
	return true, nil
}

// Tokens implements SessionStore.
func (ms *MemStore) Tokens() ([]string, error) {
	ms.mu.RLock()
	defer ms.mu.RUnlock()
	out := make([]string, 0, len(ms.sessions))
	for t := range ms.sessions {
		out = append(out, t)
	}
	sort.Strings(out)
	return out, nil
}

// Close implements SessionStore.
func (ms *MemStore) Close() error { return nil }

// cloneStoredAnswer deep-copies an answer across the store boundary so
// stored state never aliases a live stepper's slices.
func cloneStoredAnswer(a core.Answer) core.Answer {
	if a.Choices == nil {
		return a
	}
	cs := make([][]int, len(a.Choices))
	for i, sel := range a.Choices {
		cs[i] = append([]int(nil), sel...)
	}
	return core.Answer{Scenario: a.Scenario, Choices: cs}
}
