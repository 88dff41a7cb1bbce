package query

import (
	"sync"
	"time"

	"muse/internal/instance"
	"muse/internal/nr"
	"muse/internal/obs"
)

// IndexStore caches hash indexes and statistics over one source
// instance, so a whole design session (the wizard, its prefetch
// workers, Muse-D, the join wizard) builds each index at most once
// instead of once per Eval. It is safe for concurrent use; every index
// and statistics block is built exactly once (singleflight per key)
// even when several evaluations race for it.
//
// The store assumes the instance is immutable while indexed — the
// wizards only ever read the real source instance, and DESIGN.md §7
// records the invariant. Mutating the instance after indexing yields
// stale candidate sets.
type IndexStore struct {
	in *instance.Instance

	mu      sync.Mutex
	indexes map[*nr.SetType]map[string]*indexEntry
	stats   map[*nr.SetType]*statsEntry
	keyBuf  []byte // attr-list key scratch, guarded by mu

	// Metrics, guarded by mu — the same mutex the builders take — so a
	// Metrics() snapshot is consistent with respect to completed work:
	// a build's count and its build time become visible together, and
	// always before any waiter returns the built index (counters are
	// updated before the entry's done channel closes).
	built      int64
	buildNanos int64
	probes     int64
	hits       int64

	// Optional registry mirror (Observe): nil handles are no-ops, so an
	// unobserved store pays one branch per event.
	cBuilds, cBuildNanos, cProbes, cHits *obs.Counter
}

// indexEntry is one (set, attribute list) index, built exactly once:
// the goroutine that registers the entry builds it and closes done;
// everyone else blocks on done.
type indexEntry struct {
	done     chan struct{}
	idx      map[string][]*instance.Tuple
	distinct int
}

// statsEntry holds the per-set statistics block, same build-once
// protocol as indexEntry.
type statsEntry struct {
	done  chan struct{}
	stats *SetStats
}

// SetStats are the per-set statistics the planner costs candidate
// orders with, collected in one pass over the set.
type SetStats struct {
	// Card is the total tuple count (summed over occurrences for
	// nested set types).
	Card int
	// Occs is the number of occurrences (1 for top-level sets).
	Occs int
	// Distinct maps each atom attribute to its number of distinct
	// non-nil values (top-level sets only; nil-valued slots do not
	// count, matching index construction).
	Distinct map[string]int
}

// AvgOccSize estimates the tuples per occurrence (the candidate count
// of a parent-bound nested atom).
func (s *SetStats) AvgOccSize() float64 {
	if s.Occs == 0 {
		return 0
	}
	return float64(s.Card) / float64(s.Occs)
}

// StoreMetrics reports accumulated index-store effort, for the
// musebench retrieval columns. It is a compatibility shim over the
// store's counters; sessions that want a live, named view should
// Observe the store onto an obs.Registry instead.
type StoreMetrics struct {
	// IndexesBuilt counts distinct (set, attribute list) indexes
	// materialized.
	IndexesBuilt int
	// BuildTime is the total wall-clock spent building them (and
	// collecting statistics blocks).
	BuildTime time.Duration
	// Probes counts indexed candidate lookups served.
	Probes int64
	// Hits counts the probes answered by an already-materialized index
	// (Probes - Hits is the miss/build count on the Index path).
	Hits int64
}

// NewIndexStore creates an empty store over the instance.
func NewIndexStore(in *instance.Instance) *IndexStore {
	return &IndexStore{
		in:      in,
		indexes: make(map[*nr.SetType]map[string]*indexEntry),
		stats:   make(map[*nr.SetType]*statsEntry),
	}
}

// Instance returns the instance the store indexes.
func (s *IndexStore) Instance() *instance.Instance { return s.in }

// Observe mirrors the store's counters onto reg under the
// muse_index_* names (DESIGN.md §8) and returns the store. Only
// events after the call are mirrored; call it right after
// NewIndexStore, before the store is shared across goroutines. A nil
// reg is a no-op.
func (s *IndexStore) Observe(reg *obs.Registry) *IndexStore {
	if reg == nil {
		return s
	}
	s.cBuilds = reg.Counter(obs.MIndexBuilds)
	s.cBuildNanos = reg.Counter(obs.MIndexBuildNanos)
	s.cProbes = reg.Counter(obs.MIndexProbes)
	s.cHits = reg.Counter(obs.MIndexHits)
	return s
}

// Metrics returns a snapshot of the store's accumulated effort. The
// snapshot is taken under the builders' mutex, so it is consistent
// with respect to completed builds: every build that any concurrent
// Index call has already returned from is fully reflected (count and
// build time together).
func (s *IndexStore) Metrics() StoreMetrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreMetrics{
		IndexesBuilt: int(s.built),
		BuildTime:    time.Duration(s.buildNanos),
		Probes:       s.probes,
		Hits:         s.hits,
	}
}

// Index returns the hash index of the top-level set st over the given
// attribute list (single- or composite-attribute), building it on
// first use. Attrs must be in canonical (sorted) order — Eval's plans
// guarantee this. The returned map and its buckets are shared and
// read-only. The attrs identity key is composed in a store-owned
// buffer, so a cache hit allocates nothing.
func (s *IndexStore) Index(st *nr.SetType, attrs []string) map[string][]*instance.Tuple {
	s.mu.Lock()
	buf := s.keyBuf[:0]
	for _, a := range attrs {
		buf = append(buf, a...)
		buf = append(buf, '\x00')
	}
	s.keyBuf = buf
	byAttrs := s.indexes[st]
	if e, ok := byAttrs[string(buf)]; ok {
		s.probes++
		s.hits++
		s.mu.Unlock()
		s.cProbes.Inc()
		s.cHits.Inc()
		<-e.done
		return e.idx
	}
	if byAttrs == nil {
		byAttrs = make(map[string]*indexEntry)
		s.indexes[st] = byAttrs
	}
	e := &indexEntry{done: make(chan struct{})}
	byAttrs[string(buf)] = e
	s.probes++
	s.mu.Unlock()
	s.cProbes.Inc()

	start := time.Now()
	e.idx = buildIndex(s.in.Top(st), attrs)
	e.distinct = len(e.idx)
	nanos := int64(time.Since(start))
	s.mu.Lock()
	s.built++
	s.buildNanos += nanos
	s.mu.Unlock()
	s.cBuilds.Inc()
	s.cBuildNanos.Add(nanos)
	// Counters first, done second: a goroutine that saw the index is
	// guaranteed to see its build in Metrics.
	close(e.done)
	return e.idx
}

// buildIndex materializes one hash index: tuples keyed by the
// concatenation of their values' canonical keys over attrs. Tuples
// with any unset attr are excluded — they can never satisfy a pin or
// bind on that attr.
func buildIndex(set *instance.SetVal, attrs []string) map[string][]*instance.Tuple {
	idx := make(map[string][]*instance.Tuple)
	var buf []byte
	set.Each(func(t *instance.Tuple) bool {
		buf = buf[:0]
		for _, a := range attrs {
			v := t.Get(a)
			if v == nil {
				return true
			}
			buf = instance.AppendValueKey(buf, v)
			buf = append(buf, '\x05')
		}
		idx[string(buf)] = append(idx[string(buf)], t)
		return true
	})
	return idx
}

// Stats returns the statistics block for the set type, computing it on
// first use. For top-level sets one pass collects cardinality and
// per-attribute distinct counts; for nested set types only the
// cardinality/occurrence aggregate is collected (their atoms are never
// index-probed — nested atoms follow the parent's SetRef).
func (s *IndexStore) Stats(st *nr.SetType) *SetStats {
	s.mu.Lock()
	if e, ok := s.stats[st]; ok {
		s.mu.Unlock()
		<-e.done
		return e.stats
	}
	e := &statsEntry{done: make(chan struct{})}
	s.stats[st] = e
	s.mu.Unlock()

	start := time.Now()
	e.stats = collectStats(s.in, st)
	nanos := int64(time.Since(start))
	s.mu.Lock()
	s.buildNanos += nanos
	s.mu.Unlock()
	s.cBuildNanos.Add(nanos)
	close(e.done)
	return e.stats
}

func collectStats(in *instance.Instance, st *nr.SetType) *SetStats {
	stats := &SetStats{Distinct: make(map[string]int, len(st.Atoms))}
	if st.Parent == nil {
		set := in.Top(st)
		stats.Card = set.Len()
		stats.Occs = 1
		seen := make([]map[string]struct{}, len(st.Atoms))
		for i := range seen {
			seen[i] = make(map[string]struct{})
		}
		var buf []byte
		set.Each(func(t *instance.Tuple) bool {
			for i, a := range st.Atoms {
				if v := t.Get(a); v != nil {
					buf = instance.AppendValueKey(buf[:0], v)
					if _, ok := seen[i][string(buf)]; !ok {
						seen[i][string(buf)] = struct{}{}
					}
				}
			}
			return true
		})
		for i, a := range st.Atoms {
			stats.Distinct[a] = len(seen[i])
		}
		return stats
	}
	for _, occ := range in.Occurrences(st) {
		stats.Card += occ.Len()
		stats.Occs++
	}
	return stats
}
