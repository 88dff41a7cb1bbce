package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"muse/internal/obs"
)

// spanSink keeps the tracer's JSONL output in memory; the spans are
// decoded once the traced run has ended.
type spanSink struct {
	mu  sync.Mutex
	buf []byte
}

func (s *spanSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	s.buf = append(s.buf, p...)
	s.mu.Unlock()
	return len(p), nil
}

// spans decodes every span written so far.
func (s *spanSink) spans() ([]obs.SpanRecord, error) {
	s.mu.Lock()
	data := s.buf
	s.mu.Unlock()
	var out []obs.SpanRecord
	for len(data) > 0 {
		var line []byte
		line, data, _ = bytes.Cut(data, []byte{'\n'})
		if len(line) == 0 {
			continue
		}
		var rec obs.SpanRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, fmt.Errorf("decoding span: %w", err)
		}
		out = append(out, rec)
	}
	return out, nil
}

// spanTree indexes spans by parent, for self times.
type spanTree map[string][]*obs.SpanRecord

func newSpanTree(spans []obs.SpanRecord) spanTree {
	t := make(spanTree)
	for i := range spans {
		if p := spans[i].ParentID; p != "" {
			t[p] = append(t[p], &spans[i])
		}
	}
	return t
}

// self is the part of sp's interval that none of its direct children
// covers; keep, when non-nil, selects which children count.
func (t spanTree) self(sp *obs.SpanRecord, keep func(name string) bool) time.Duration {
	start, end := sp.Start, sp.Start.Add(sp.Dur)
	type interval struct{ s, e time.Time }
	var ivs []interval
	for _, k := range t[sp.SpanID] {
		if keep != nil && !keep(k.Name) {
			continue
		}
		s, e := k.Start, k.Start.Add(k.Dur)
		if s.Before(start) {
			s = start
		}
		if e.After(end) {
			e = end
		}
		if e.After(s) {
			ivs = append(ivs, interval{s, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s.Before(ivs[j].s) })
	covered := time.Duration(0)
	for i := 0; i < len(ivs); {
		cur := ivs[i]
		for i++; i < len(ivs) && !ivs[i].s.After(cur.e); i++ {
			if ivs[i].e.After(cur.e) {
				cur.e = ivs[i].e
			}
		}
		covered += cur.e.Sub(cur.s)
	}
	return sp.Dur - covered
}

// engineSpan selects the query and chase engines' spans.
func engineSpan(name string) bool { return name == obs.SpanQueryEval || name == obs.SpanChase }
