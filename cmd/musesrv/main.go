// Command musesrv serves Muse wizard sessions over HTTP/JSON: many
// designers refine mappings concurrently, each through the
// question/answer dialog of the Muse-G and Muse-D wizards, driven by
// any HTTP client (docs/API.md has the full reference and a curl
// walkthrough).
//
// Usage:
//
//	musesrv [-addr :8080] [-max-sessions 64] [-session-ttl 30m (alias -ttl)]
//	        [-store mem|wal] [-wal-dir DIR] [-fsync=true]
//	        [-prime=false] [-auto-threshold 0.15]
//	        [-doc scenario.muse -src S -tgt T [-instance I] [-name NAME]]
//	        [-trace spans.jsonl] [-access-log access.jsonl]
//	        [-slow-threshold 250ms] [-slow-cap 64] [-debug-addr 127.0.0.1:6060]
//
// With no -doc the server offers the built-in paper scenarios "fig1"
// and "fig4". A -doc flag adds the document's mapping set as a
// scenario named by -name (default "doc").
//
// Observability: every request gets an X-Muse-Request-Id (accepted
// from the client or minted) and a correlated span tree; -trace
// streams finished spans as JSONL, -access-log writes one JSON line
// per request, the flight recorder keeps the last -slow-cap steps
// slower than -slow-threshold at GET /debug/slow (0 captures every
// step, -1 disables), and -debug-addr exposes net/http/pprof and
// expvar on a separate listener (keep it private).
//
// Auto-answering: -auto-threshold T > 0 attaches the evidence ranker
// to every session, so each question envelope carries per-option
// scores ("ranking"/"rankings"), the recommended answer ("best"), and
// a "decisive" verdict at confidence T — an unattended client (see
// museload -answers ranked) follows the recommendation and only
// escalates indecisive questions. Resumed dialogs replay with the
// identical configuration, so rankings never perturb resume.
//
// Durability: -store mem (default) keeps accepted answers in memory
// so only eviction is survivable; -store wal appends each accepted
// answer to a per-session write-ahead log under -wal-dir and replays
// it on demand, so a restarted (or different, if the directory is
// shared) replica transparently resumes any token. -fsync=false trades
// crash safety for latency. docs/OPERATIONS.md covers the recovery
// semantics.
//
// The server shuts down gracefully on SIGINT/SIGTERM: in-flight
// requests drain (bounded by -shutdown-timeout), then every live
// session is closed and the session store is flushed. -addr-file
// writes the bound address (useful with ":0" for tests and CI).
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"muse"
	"muse/internal/server"
	"muse/internal/server/walstore"
)

func main() {
	log.SetFlags(0)
	addr := flag.String("addr", ":8080", "listen address (\":0\" picks an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening")
	maxSessions := flag.Int("max-sessions", server.DefaultMaxSessions, "maximum live sessions (idle LRU sessions are evicted past it)")
	sessionTTL := flag.Duration("session-ttl", server.DefaultTTL, "idle session lifetime (0 disables expiry)")
	flag.DurationVar(sessionTTL, "ttl", server.DefaultTTL, "alias for -session-ttl")
	storeKind := flag.String("store", "mem", "session store: \"mem\" (resume survives eviction) or \"wal\" (resume survives restarts; needs -wal-dir)")
	walDir := flag.String("wal-dir", "", "directory for per-session write-ahead logs (with -store wal)")
	fsync := flag.Bool("fsync", true, "fsync each WAL append before acknowledging the answer (with -store wal)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 10*time.Second, "grace period for in-flight requests on shutdown")
	prime := flag.Bool("prime", true, "count every scenario set's statistics before serving")
	autoThreshold := flag.Float64("auto-threshold", 0, "attach evidence rankings to every question, marked decisive at this confidence (0 disables)")
	docPath := flag.String("doc", "", "Muse document to serve as a scenario (optional)")
	src := flag.String("src", "", "source schema name (with -doc)")
	tgt := flag.String("tgt", "", "target schema name (with -doc)")
	inst := flag.String("instance", "", "source instance to draw examples from (with -doc, optional)")
	name := flag.String("name", "doc", "scenario name for the -doc mapping set")
	tracePath := flag.String("trace", "", "stream finished spans to this file as JSONL")
	accessPath := flag.String("access-log", "", "write one JSON line per request to this file")
	slowThreshold := flag.Duration("slow-threshold", server.DefaultSlowThreshold, "flight-record steps at least this slow (0 = every step, negative = off)")
	slowCap := flag.Int("slow-cap", server.DefaultSlowCap, "slow steps retained for GET /debug/slow")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof and expvar on this address (empty = off; keep it private)")
	flag.Parse()

	scenarios := server.Builtin()
	if *docPath != "" {
		if *src == "" || *tgt == "" {
			log.Fatal("-doc requires -src and -tgt")
		}
		text, err := os.ReadFile(*docPath)
		if err != nil {
			log.Fatal(err)
		}
		doc, err := muse.Parse(string(text))
		if err != nil {
			log.Fatal(err)
		}
		sc, err := server.FromDocument(doc, *src, *tgt, *inst)
		if err != nil {
			log.Fatal(err)
		}
		scenarios[*name] = sc
	}

	o := muse.NewObs()
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		o.Tr.SetSink(f)
	}
	mg := server.NewManager(scenarios, o)
	mg.MaxSessions = *maxSessions
	mg.TTL = *sessionTTL
	mg.AutoThreshold = *autoThreshold
	switch *storeKind {
	case "mem":
		mg.Store = server.NewMemStore()
	case "wal":
		if *walDir == "" {
			log.Fatal("-store wal requires -wal-dir")
		}
		ws, stats, err := walstore.Open(*walDir, walstore.Options{Fsync: *fsync, Reg: o.Registry()})
		if err != nil {
			log.Fatal(err)
		}
		defer ws.Close()
		log.Printf("musesrv: WAL recovery: %d session(s), %d torn tail(s) truncated, %d corrupt log(s)",
			stats.Sessions, stats.TornTails, stats.Corrupt)
		mg.Store = ws
	default:
		log.Fatalf("-store %q: want \"mem\" or \"wal\"", *storeKind)
	}
	if *prime {
		t0 := time.Now()
		mg.Prime(context.Background())
		log.Printf("musesrv: primed %d scenario(s) in %v", len(scenarios), time.Since(t0).Round(time.Millisecond))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	log.Printf("musesrv listening on %s (%d scenario(s))", ln.Addr(), len(scenarios))

	srv := server.New(mg)
	if *slowThreshold < 0 {
		srv.Flight = nil
	} else {
		srv.Flight = server.NewFlightRecorder(*slowThreshold, *slowCap)
	}
	if *accessPath != "" {
		f, err := os.Create(*accessPath)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		srv.Access = server.NewAccessLog(f)
	}
	if *debugAddr != "" {
		go serveDebug(*debugAddr)
	}

	hs := &http.Server{Handler: srv}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("musesrv: %v, draining", s)
		ctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		err := hs.Shutdown(ctx)
		cancel()
		mg.Close()
		if err != nil {
			log.Fatalf("musesrv: shutdown: %v", err)
		}
	case err := <-done:
		if !errors.Is(err, http.ErrServerClosed) {
			log.Fatal(err)
		}
	}
}

// serveDebug exposes the profiling endpoints on their own listener so
// the serving port never leaks pprof/expvar: /debug/pprof/* and
// /debug/vars, the stock net/http/pprof and expvar handlers.
func serveDebug(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	log.Printf("musesrv: debug endpoints on http://%s/debug/pprof/ and /debug/vars", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		log.Printf("musesrv: debug listener: %v", err)
	}
}
