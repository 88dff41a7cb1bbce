package main

import (
	"context"
	"errors"
	"net"
	"net/http"
	"sync"
	"time"

	"muse/internal/core"
	"muse/internal/obs"
	"muse/internal/server"
)

// replica is one server: a Manager behind server.New on a loopback
// listener.
type replica struct {
	mg    *server.Manager
	store server.SessionStore
	hs    *http.Server
	url   string
	done  chan error
}

func startReplica(scen map[string]*server.Scenario, o *obs.Obs, store server.SessionStore, auto float64) (*replica, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	mg := server.NewManager(scen, o)
	mg.AutoThreshold = auto
	mg.Store = store
	srv := server.New(mg)
	// The flight recorder asks traced requests for planner Explain
	// output, which would inflate the query layer's times.
	srv.Flight = nil
	r := &replica{mg: mg, store: store, hs: &http.Server{Handler: srv}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { r.done <- r.hs.Serve(ln) }()
	return r, nil
}

// stop drains and closes the listener and its connections.
func (r *replica) stop() error {
	if r.done == nil {
		return nil
	}
	err := r.hs.Shutdown(context.Background())
	if serr := <-r.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	r.done = nil
	return err
}

// close stops the replica, then closes the sessions and the store.
func (r *replica) close() error {
	err := r.stop()
	r.mg.Close()
	if cerr := r.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// timedStore times the Manager's calls into its SessionStore.
type timedStore struct {
	server.SessionStore
	mu                          sync.Mutex
	creates, appends, completes []time.Duration
	loads                       map[string]time.Duration // by token
}

func newTimedStore(s server.SessionStore) *timedStore {
	return &timedStore{SessionStore: s, loads: make(map[string]time.Duration)}
}

func (s *timedStore) note(l *[]time.Duration, since time.Time) {
	d := time.Since(since)
	s.mu.Lock()
	*l = append(*l, d)
	s.mu.Unlock()
}

func (s *timedStore) Create(token, scenario string) error {
	defer s.note(&s.creates, time.Now())
	return s.SessionStore.Create(token, scenario)
}

func (s *timedStore) Append(token, scenario string, seq int, a core.Answer) error {
	defer s.note(&s.appends, time.Now())
	return s.SessionStore.Append(token, scenario, seq, a)
}

func (s *timedStore) Complete(token string) error {
	defer s.note(&s.completes, time.Now())
	return s.SessionStore.Complete(token)
}

func (s *timedStore) Load(token string) (server.StoredSession, bool, error) {
	t0 := time.Now()
	ss, ok, err := s.SessionStore.Load(token)
	d := time.Since(t0)
	s.mu.Lock()
	s.loads[token] = d
	s.mu.Unlock()
	return ss, ok, err
}
