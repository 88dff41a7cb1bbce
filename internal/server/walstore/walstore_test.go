package walstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"muse/internal/core"
	"muse/internal/server"
)

const tok = "00112233445566778899aabbccddeeff"

func open(t *testing.T, dir string) (*Store, RecoveryStats) {
	t.Helper()
	s, stats, err := Open(dir, Options{Fsync: false})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, stats
}

func seed(t *testing.T, s *Store, answers int) {
	t.Helper()
	if err := s.Create(tok, "fig1"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= answers; i++ {
		if err := s.Append(tok, "fig1", i, core.Answer{Scenario: 1 + i%2}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir)
	seed(t, s, 3)
	if err := s.Append(tok, "fig1", 4, core.Answer{Choices: [][]int{{0}, {1, 2}}}); err != nil {
		t.Fatal(err)
	}
	ss, ok, err := s.Load(tok)
	if err != nil || !ok {
		t.Fatalf("Load: ok=%v err=%v", ok, err)
	}
	if ss.Scenario != "fig1" || len(ss.Answers) != 4 || ss.Done {
		t.Fatalf("Load = %+v", ss)
	}
	if got := ss.Answers[3].Choices; len(got) != 2 || got[1][1] != 2 {
		t.Fatalf("choices did not round-trip: %v", got)
	}
	if _, ok, _ := s.Load(strings.Repeat("a", 32)); ok {
		t.Fatal("unknown token loaded")
	}
}

func TestReopenRecovers(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir)
	seed(t, s, 5)
	s.Close()

	s2, stats := open(t, dir)
	if stats.Sessions != 1 || stats.TornTails != 0 || stats.Corrupt != 0 {
		t.Fatalf("recovery stats = %+v", stats)
	}
	ss, ok, err := s2.Load(tok)
	if err != nil || !ok || len(ss.Answers) != 5 {
		t.Fatalf("Load after reopen: ok=%v err=%v answers=%d", ok, err, len(ss.Answers))
	}
	// Appends continue against a recovered log.
	if err := s2.Append(tok, "fig1", 6, core.Answer{Scenario: 2}); err != nil {
		t.Fatal(err)
	}
	toks, err := s2.Tokens()
	if err != nil || len(toks) != 1 || toks[0] != tok {
		t.Fatalf("Tokens = %v, %v", toks, err)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir)
	seed(t, s, 4)
	s.Close()

	// Crash mid-append: the 5th record is cut short.
	path := filepath.Join(dir, tok+".wal")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"c":"0a1b2c3d","r":{"op":"answ`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, _ := os.Stat(path)

	s2, stats := open(t, dir)
	if stats.Sessions != 1 || stats.TornTails != 1 || stats.Corrupt != 0 {
		t.Fatalf("recovery stats = %+v", stats)
	}
	after, _ := os.Stat(path)
	if after.Size() >= before.Size() {
		t.Fatalf("torn tail not truncated: %d -> %d bytes", before.Size(), after.Size())
	}
	ss, ok, err := s2.Load(tok)
	if err != nil || !ok || len(ss.Answers) != 4 {
		t.Fatalf("Load after torn tail: ok=%v err=%v answers=%d (want the 4 whole records)", ok, err, len(ss.Answers))
	}
}

func TestChecksumMismatchIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir)
	seed(t, s, 4)
	s.Close()

	// Flip one byte inside an early record's payload: the checksum
	// breaks mid-file, with good records after it.
	path := filepath.Join(dir, tok+".wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := len(data) / 4
	for data[i] == '\n' || data[i] == '"' {
		i++
	}
	data[i] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, stats := open(t, dir)
	if stats.Corrupt != 1 || stats.Sessions != 0 {
		t.Fatalf("recovery stats = %+v, want 1 corrupt", stats)
	}
	if _, _, err := s2.Load(tok); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load of corrupt log: err=%v, want ErrCorrupt", err)
	}
}

// oldSnapshotLog is a finished dialog's log as earlier versions left
// it: Complete rewrote the 6-answer log seed writes into one snapshot
// record.
const oldSnapshotLog = `{"c":"18fbd5d9","r":{"op":"snapshot","scenario":"fig1","answers":[{"Scenario":2,"Choices":null},{"Scenario":1,"Choices":null},{"Scenario":2,"Choices":null},{"Scenario":1,"Choices":null},{"Scenario":2,"Choices":null},{"Scenario":1,"Choices":null}],"done":true}}` + "\n"

// TestCompleteAppendsDone: Complete appends one done record to the
// same file, a repeated done is harmless, answers logged after a done
// load as MemStore loads the same calls, a torn done is a torn tail,
// and a log in the old snapshot format still loads as done.
func TestCompleteAppendsDone(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, tok+".wal")
	s, _ := open(t, dir)
	seed(t, s, 6)
	before, _ := os.ReadFile(path)
	fiBefore, _ := os.Stat(path)
	if err := s.Complete(tok); err != nil {
		t.Fatal(err)
	}
	after, _ := os.ReadFile(path)
	fiAfter, _ := os.Stat(path)
	added, ok := bytes.CutPrefix(after, before)
	if !ok || bytes.Count(added, []byte("\n")) != 1 {
		t.Fatalf("Complete did not append exactly one line: %q", added)
	}
	if r, err := decodeLine(bytes.TrimSuffix(added, []byte("\n"))); err != nil || r.Op != "done" {
		t.Fatalf("appended line decodes to %+v, %v; want op done", r, err)
	}
	if !os.SameFile(fiBefore, fiAfter) {
		t.Fatal("Complete replaced the log file")
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("Complete left a .wal.tmp: %v", err)
	}
	loadDone := func(s *Store, want bool) {
		t.Helper()
		ss, ok, err := s.Load(tok)
		if err != nil || !ok || ss.Done != want || len(ss.Answers) != 6 {
			t.Fatalf("Load: ok=%v err=%v done=%v answers=%d, want done=%v with 6 answers", ok, err, ss.Done, len(ss.Answers), want)
		}
	}
	loadDone(s, true)
	s.Close()
	s2, stats := open(t, dir)
	if stats.Sessions != 1 || stats.TornTails != 0 || stats.Corrupt != 0 {
		t.Fatalf("recovery stats after Complete = %+v", stats)
	}
	loadDone(s2, true)

	// A replica serving a handed-off dialog's result completes it again.
	if err := s2.Complete(tok); err != nil {
		t.Fatal(err)
	}
	loadDone(s2, true)
	done, _ := os.ReadFile(path)

	// A dialog whose terminal step was a cancelled request replays to
	// its next pending question and goes on: the answers it logs after
	// done were acknowledged and must load.
	t.Run("answer after done", func(t *testing.T) {
		if err := s2.Append(tok, "fig1", 7, core.Answer{Scenario: 1}); err != nil {
			t.Fatal(err)
		}
		ms := server.NewMemStore()
		ms.Create(tok, "fig1")
		for i := 1; i <= 6; i++ {
			ms.Append(tok, "fig1", i, core.Answer{Scenario: 1 + i%2})
		}
		ms.Complete(tok)
		ms.Complete(tok)
		ms.Append(tok, "fig1", 7, core.Answer{Scenario: 1})
		want, _, _ := ms.Load(tok)
		if got, ok, err := s2.Load(tok); err != nil || !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("Load: ok=%v err=%v %+v, want %+v", ok, err, got, want)
		}
		s3, stats := open(t, dir)
		if stats.Sessions != 1 || stats.TornTails != 0 || stats.Corrupt != 0 {
			t.Fatalf("recovery stats = %+v", stats)
		}
		if got, ok, err := s3.Load(tok); err != nil || !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("reopened Load: ok=%v err=%v %+v, want %+v", ok, err, got, want)
		}
	})

	t.Run("torn done", func(t *testing.T) {
		if err := os.WriteFile(path, append(slices.Clone(before), done[len(before):len(before)+10]...), 0o644); err != nil {
			t.Fatal(err)
		}
		s, stats := open(t, dir)
		if stats.Sessions != 1 || stats.TornTails != 1 || stats.Corrupt != 0 {
			t.Fatalf("recovery stats = %+v, want 1 torn tail", stats)
		}
		loadDone(s, false)
	})

	t.Run("old snapshot format", func(t *testing.T) {
		if err := os.WriteFile(path, []byte(oldSnapshotLog), 0o644); err != nil {
			t.Fatal(err)
		}
		s, stats := open(t, dir)
		if stats.Sessions != 1 || stats.TornTails != 0 || stats.Corrupt != 0 {
			t.Fatalf("recovery stats = %+v", stats)
		}
		loadDone(s, true)
		ss, _, _ := s.Load(tok)
		for i, a := range ss.Answers {
			if a.Scenario != 1+(i+1)%2 {
				t.Fatalf("answer %d = %+v, want scenario %d", i+1, a, 1+(i+1)%2)
			}
		}
	})
}

func TestDelete(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir)
	seed(t, s, 2)
	found, err := s.Delete(tok)
	if err != nil || !found {
		t.Fatalf("Delete: found=%v err=%v", found, err)
	}
	if _, ok, _ := s.Load(tok); ok {
		t.Fatal("deleted token still loads")
	}
	found, err = s.Delete(tok)
	if err != nil || found {
		t.Fatalf("second Delete: found=%v err=%v", found, err)
	}
}

func TestRejectsHostileToken(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir)
	for _, bad := range []string{"", "short", "../../etc/passwd", "ABCDEF0011223344", "zz112233445566778899aabbccddeeff"} {
		if err := s.Create(bad, "fig1"); err == nil {
			t.Fatalf("Create accepted hostile token %q", bad)
		}
	}
}

func TestAbandonedTmpCleanedUp(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir)
	seed(t, s, 1)
	s.Close()
	tmp := filepath.Join(dir, tok+".wal.tmp")
	if err := os.WriteFile(tmp, []byte("half a compaction"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, stats := open(t, dir)
	if stats.Sessions != 1 {
		t.Fatalf("recovery stats = %+v", stats)
	}
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("abandoned .tmp not removed at boot")
	}
}

// TestTokensFiltersNonTokenFiles plants the debris a shared WAL
// directory can accumulate — a leftover .tmp compaction file (without
// a reboot to sweep it) and stray non-token .wal files — and requires
// Tokens to report only names the store itself could have written.
// Every reported token must be resumable: Load must accept it.
func TestTokensFiltersNonTokenFiles(t *testing.T) {
	dir := t.TempDir()
	s, _ := open(t, dir)
	seed(t, s, 2)
	for _, plant := range []string{
		tok + ".wal.tmp",                     // an earlier version's abandoned compaction, pre-sweep
		"notes.wal",                          // stray file with the right suffix, wrong name
		"ABCDEF00112233445566778899aabb.wal", // uppercase: not a minted token
		"readme.txt",
	} {
		if err := os.WriteFile(filepath.Join(dir, plant), []byte("debris"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tokens, err := s.Tokens()
	if err != nil {
		t.Fatal(err)
	}
	if len(tokens) != 1 || tokens[0] != tok {
		t.Fatalf("Tokens = %v, want [%s]", tokens, tok)
	}
	for _, token := range tokens {
		if _, ok, err := s.Load(token); err != nil || !ok {
			t.Fatalf("reported token %q does not load: ok=%v err=%v", token, ok, err)
		}
	}
}

// BenchmarkWALDialog is the store's share of one fig1-length dialog:
// Create, one Append per answer, Complete and Delete, with and without
// an fsync per record.
func BenchmarkWALDialog(b *testing.B) {
	const answers = 11 // fig1's dialog length
	for _, fsync := range []bool{false, true} {
		name := "fsync=off"
		if fsync {
			name = "fsync=on"
		}
		b.Run(name, func(b *testing.B) {
			s, _, err := Open(b.TempDir(), Options{Fsync: fsync})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := s.Create(tok, "fig1"); err != nil {
					b.Fatal(err)
				}
				for seq := 1; seq <= answers; seq++ {
					if err := s.Append(tok, "fig1", seq, core.Answer{Scenario: 1 + seq%2}); err != nil {
						b.Fatal(err)
					}
				}
				if err := s.Complete(tok); err != nil {
					b.Fatal(err)
				}
				if _, err := s.Delete(tok); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
