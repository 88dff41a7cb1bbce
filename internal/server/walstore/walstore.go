// Package walstore persists wizard-dialog state in per-token
// write-ahead logs, so any musesrv replica — including one started
// after a crash — can resume any token by replay (docs/OPERATIONS.md
// is the operator view; DESIGN.md §12 states the invariants).
//
// Layout: one `<token>.wal` file per dialog in the store directory,
// JSONL — one record per line, each wrapped in a checksum envelope
//
//	{"c":"<crc32c of r, hex>","r":{"op":...}}
//
// Three record kinds: "create" (scenario) opens the log, "answer"
// (seq, answer) logs one accepted answer, and "done" marks that the
// dialog reached a terminal step (Complete appends it). A repeated
// done is harmless, and answers may follow one: a dialog that failed
// because its request was cancelled replays to its next pending
// question and goes on. Logs written by earlier versions may instead
// hold one "snapshot" (scenario, answers, done) record; it still
// loads, but nothing writes it any more. Every record is an append:
// Append fsyncs by default before returning, and the manager
// acknowledges an answer only after Append returns, so an acknowledged
// answer survives a kill -9.
//
// Recovery: Open scans every log. A torn tail — a final record cut
// short by a crash mid-write — is truncated away (the dialog resumes
// one answer earlier, which the client never acknowledged). A bad
// record with good records after it is real corruption: the token is
// left on disk but refuses to load, which the manager maps to 410
// gone.
package walstore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"muse/internal/core"
	"muse/internal/obs"
	"muse/internal/server"
)

// ErrCorrupt marks a log with an unreadable record before its tail:
// the token's state cannot be trusted and the manager reports the
// token gone (410).
var ErrCorrupt = errors.New("walstore: corrupt record")

// Options configures Open.
type Options struct {
	// Fsync syncs the log after every appended record (the durability
	// the ack-after-append contract assumes). Off, appends reach the OS
	// but a machine crash may lose acknowledged answers; musesrv wires
	// this to -fsync (default on).
	Fsync bool
	// Reg receives the muse_server_wal_* counters; may be nil.
	Reg *obs.Registry
}

// RecoveryStats summarizes one boot-time scan.
type RecoveryStats struct {
	// Sessions is how many token logs loaded cleanly.
	Sessions int
	// TornTails is how many logs lost a torn final record to
	// truncation.
	TornTails int
	// Corrupt is how many logs refused to load (mid-file corruption);
	// they are left on disk for inspection but their tokens are gone.
	Corrupt int
}

// Store is the on-disk SessionStore. One mutex covers the file map and
// all file writes: appends are fsync-bound anyway, and per-token calls
// are already serialized by the manager's session lock.
type Store struct {
	dir   string
	fsync bool

	mu    sync.Mutex
	files map[string]*os.File // open append handles, one per live token

	mAppends, mFsyncs, mBytes        *obs.Counter
	mRecovered, mTornTails, mCorrupt *obs.Counter
}

// rec is one WAL record (the "r" of the envelope). Answers and Done
// are read from snapshot records only.
type rec struct {
	Op       string        `json:"op"`
	Scenario string        `json:"scenario,omitempty"`
	Seq      int           `json:"seq,omitempty"`
	Answer   *core.Answer  `json:"answer,omitempty"`
	Answers  []core.Answer `json:"answers,omitempty"`
	Done     bool          `json:"done,omitempty"`
}

// envelope wraps a record with its checksum. R stays raw so the
// checksum covers the exact bytes on disk.
type envelope struct {
	C string          `json:"c"`
	R json.RawMessage `json:"r"`
}

// Open scans dir (created if missing), recovers every token log —
// truncating torn tails, counting corrupt logs — and returns the
// store ready for traffic.
func Open(dir string, opts Options) (*Store, RecoveryStats, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, RecoveryStats{}, err
	}
	s := &Store{
		dir:        dir,
		fsync:      opts.Fsync,
		files:      make(map[string]*os.File),
		mAppends:   opts.Reg.Counter(obs.MSrvWALAppends),
		mFsyncs:    opts.Reg.Counter(obs.MSrvWALFsyncs),
		mBytes:     opts.Reg.Counter(obs.MSrvWALBytes),
		mRecovered: opts.Reg.Counter(obs.MSrvWALRecovered),
		mTornTails: opts.Reg.Counter(obs.MSrvWALTornTails),
		mCorrupt:   opts.Reg.Counter(obs.MSrvWALCorrupt),
	}
	var stats RecoveryStats
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, stats, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".wal") {
			// A leftover .tmp file is a compaction an earlier version
			// abandoned before its rename; the .wal is authoritative.
			if strings.HasSuffix(name, ".tmp") {
				os.Remove(filepath.Join(dir, name))
			}
			continue
		}
		path := filepath.Join(dir, name)
		_, goodLen, err := readLog(path)
		switch {
		case errors.Is(err, ErrCorrupt):
			stats.Corrupt++
			s.mCorrupt.Inc()
			continue
		case err != nil:
			return nil, stats, fmt.Errorf("walstore: recovering %s: %w", name, err)
		}
		if fi, serr := os.Stat(path); serr == nil && fi.Size() > goodLen {
			if terr := os.Truncate(path, goodLen); terr != nil {
				return nil, stats, fmt.Errorf("walstore: truncating torn tail of %s: %w", name, terr)
			}
			stats.TornTails++
			s.mTornTails.Inc()
		}
		stats.Sessions++
		s.mRecovered.Inc()
	}
	return s, stats, nil
}

func (s *Store) path(token string) (string, error) {
	if !validToken(token) {
		return "", fmt.Errorf("walstore: invalid token %q", token)
	}
	return filepath.Join(s.dir, token+".wal"), nil
}

// validToken keeps token-derived filenames boring: lowercase hex, the
// shape the manager mints, so a hostile token can never traverse out
// of the store directory.
func validToken(t string) bool {
	if len(t) < 8 || len(t) > 128 {
		return false
	}
	for _, c := range t {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Create implements server.SessionStore: an exclusive create of the
// token's log with its opening record, synced to disk.
func (s *Store) Create(token, scenario string) error {
	path, err := s.path(token)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("walstore: creating log: %w", err)
	}
	if err := s.appendLocked(f, rec{Op: "create", Scenario: scenario}); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	s.files[token] = f
	return nil
}

// Append implements server.SessionStore: one fsync'd answer record.
// The log must already exist (Create or a recovered file); appends
// never invent a token.
func (s *Store) Append(token, scenario string, seq int, a core.Answer) error {
	path, err := s.path(token)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := s.handleLocked(token, path)
	if err != nil {
		return err
	}
	return s.appendLocked(f, rec{Op: "answer", Seq: seq, Answer: &a})
}

// handleLocked returns the token's append handle, opening the log
// O_APPEND when this replica holds none (a handed-off or recovered
// token).
func (s *Store) handleLocked(token, path string) (*os.File, error) {
	if f, ok := s.files[token]; ok {
		return f, nil
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("walstore: opening log: %w", err)
	}
	s.files[token] = f
	return f, nil
}

// appendLocked writes one checksummed record line and, when the store
// fsyncs, makes it durable before returning.
func (s *Store) appendLocked(f *os.File, r rec) error {
	line, err := encodeRec(r)
	if err != nil {
		return err
	}
	if _, err := f.Write(line); err != nil {
		return fmt.Errorf("walstore: appending record: %w", err)
	}
	s.mAppends.Inc()
	s.mBytes.Add(int64(len(line)))
	if s.fsync {
		if err := f.Sync(); err != nil {
			return fmt.Errorf("walstore: syncing log: %w", err)
		}
		s.mFsyncs.Inc()
	}
	return nil
}

func encodeRec(r rec) ([]byte, error) {
	body, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("walstore: encoding record: %w", err)
	}
	var b bytes.Buffer
	b.Grow(len(body) + 24)
	fmt.Fprintf(&b, `{"c":"%08x","r":`, crc32.ChecksumIEEE(body))
	b.Write(body)
	b.WriteString("}\n")
	return b.Bytes(), nil
}

// decodeLine parses one envelope line, verifying the checksum.
func decodeLine(line []byte) (rec, error) {
	var env envelope
	if err := json.Unmarshal(line, &env); err != nil {
		return rec{}, fmt.Errorf("walstore: bad envelope: %w", err)
	}
	sum, err := strconv.ParseUint(env.C, 16, 32)
	if err != nil {
		return rec{}, fmt.Errorf("walstore: bad checksum field: %w", err)
	}
	if uint32(sum) != crc32.ChecksumIEEE(env.R) {
		return rec{}, fmt.Errorf("walstore: checksum mismatch")
	}
	var r rec
	if err := json.Unmarshal(env.R, &r); err != nil {
		return rec{}, fmt.Errorf("walstore: bad record: %w", err)
	}
	return r, nil
}

// readLog reads a token log and folds its records into a
// StoredSession. goodLen is the byte offset past the last whole,
// checksum-clean record: anything beyond it is a torn tail (crash
// mid-append) the caller may truncate. A bad record *before* the tail,
// or a record sequence that doesn't fold (answers out of order, no
// opening create), is ErrCorrupt.
func readLog(path string) (server.StoredSession, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return server.StoredSession{}, 0, err
	}
	var ss server.StoredSession
	var goodLen int64
	opened := false
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			// No trailing newline: a record cut short. Torn tail.
			return ss, goodLen, nil
		}
		line := data[off : off+nl]
		r, derr := decodeLine(line)
		if derr != nil {
			// Bad line: torn tail if nothing but the tail follows,
			// corruption if good data comes after.
			rest := data[off+nl+1:]
			if len(bytes.TrimSpace(rest)) == 0 {
				return ss, goodLen, nil
			}
			return server.StoredSession{}, 0, fmt.Errorf("%w: %s at offset %d: %v", ErrCorrupt, filepath.Base(path), off, derr)
		}
		if ferr := foldRec(&ss, &opened, r); ferr != nil {
			return server.StoredSession{}, 0, fmt.Errorf("%w: %s at offset %d: %v", ErrCorrupt, filepath.Base(path), off, ferr)
		}
		off += nl + 1
		goodLen = int64(off)
	}
	if !opened {
		return server.StoredSession{}, 0, fmt.Errorf("%w: %s has no opening record", ErrCorrupt, filepath.Base(path))
	}
	return ss, goodLen, nil
}

// foldRec applies one record to the session being rebuilt.
func foldRec(ss *server.StoredSession, opened *bool, r rec) error {
	switch r.Op {
	case "create":
		if *opened {
			return errors.New("duplicate create record")
		}
		*opened = true
		ss.Scenario = r.Scenario
	case "snapshot":
		if *opened {
			return errors.New("snapshot after other records")
		}
		*opened = true
		ss.Scenario, ss.Answers, ss.Done = r.Scenario, r.Answers, r.Done
	case "done":
		if !*opened {
			return errors.New("done before create")
		}
		ss.Done = true
	case "answer":
		if !*opened {
			return errors.New("answer before create")
		}
		if r.Answer == nil {
			return errors.New("answer record without an answer")
		}
		if r.Seq != len(ss.Answers)+1 {
			return fmt.Errorf("answer seq %d, want %d", r.Seq, len(ss.Answers)+1)
		}
		ss.Answers = append(ss.Answers, *r.Answer)
	default:
		return fmt.Errorf("unknown op %q", r.Op)
	}
	return nil
}

// Load implements server.SessionStore: re-read the log from disk (the
// token may predate this process).
func (s *Store) Load(token string) (server.StoredSession, bool, error) {
	path, err := s.path(token)
	if err != nil {
		return server.StoredSession{}, false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ss, _, err := readLog(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return server.StoredSession{}, false, nil
	case err != nil:
		return server.StoredSession{}, false, err
	}
	return ss, true, nil
}

// Complete implements server.SessionStore: append one "done" record
// and close the token's handle, since a finished dialog logs no more
// answers. Completing again (a replica serving a handed-off dialog's
// result) appends another, which loads the same.
func (s *Store) Complete(token string) error {
	path, err := s.path(token)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := s.handleLocked(token, path)
	if err != nil {
		return err
	}
	err = s.appendLocked(f, rec{Op: "done"})
	delete(s.files, token)
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("walstore: closing log: %w", cerr)
	}
	return err
}

// Delete implements server.SessionStore.
func (s *Store) Delete(token string) (bool, error) {
	path, err := s.path(token)
	if err != nil {
		return false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.files[token]; ok {
		f.Close()
		delete(s.files, token)
	}
	if err := os.Remove(path); err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return false, nil
		}
		return false, err
	}
	s.syncDirLocked()
	return true, nil
}

// Tokens implements server.SessionStore. Only names the store itself
// could have written count: <valid token>.wal. Leftover .tmp
// compaction files and stray files in a shared directory must never
// surface as resumable tokens — a reported token must round-trip
// through Replay, which rejects non-token names.
func (s *Store) Tokens() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".wal") {
			continue
		}
		if token := strings.TrimSuffix(name, ".wal"); validToken(token) {
			out = append(out, token)
		}
	}
	return out, nil
}

// Close implements server.SessionStore: sync and close every open
// handle (musesrv calls it after the graceful drain).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for token, f := range s.files {
		if s.fsync {
			if err := f.Sync(); err != nil && first == nil {
				first = err
			}
		}
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
		delete(s.files, token)
	}
	return first
}

// syncDirLocked makes an unlink durable. Best-effort: some
// filesystems refuse directory fsync, and the contents themselves are
// already synced.
func (s *Store) syncDirLocked() {
	if !s.fsync {
		return
	}
	if d, err := os.Open(s.dir); err == nil {
		d.Sync()
		d.Close()
	}
}
