package query

import (
	"sync"
	"time"

	"muse/internal/instance"
	"muse/internal/nr"
	"muse/internal/obs"
)

// IndexStore caches hash indexes, statistics and uniqueness verdicts
// over one source instance, so a whole design session (the wizard,
// Muse-D, the join wizard, the ranker) builds each index at most once
// instead of once per Eval. It is safe for concurrent use; every
// index, statistics block and verdict is built exactly once
// (singleflight per key) even when several evaluations race for it.
// Indexes are instance.Index values and every count comes from
// instance.CountDistinct, so the store renders no value keys.
//
// The store assumes the instance is immutable while indexed — the
// wizards only ever read the real source instance, and DESIGN.md §7
// records the invariant. Mutating the instance after indexing yields
// stale candidate sets.
type IndexStore struct {
	in *instance.Instance

	mu      sync.Mutex
	indexes map[cacheKey]*entry[*instance.Index]
	stats   map[cacheKey]*entry[*SetStats]
	uniques map[cacheKey]*entry[bool]
	keyBuf  []byte // attr-list key scratch, guarded by mu

	// Registry counters (Observe): nil handles are no-ops, so an
	// unobserved store pays one branch per event.
	cBuilds, cBuildNanos, cProbes, cHits *obs.Counter
}

// cacheKey names a cache slot: a set type and an attribute list, each
// attribute followed by 0x00 (empty for a statistics block).
type cacheKey struct {
	st    *nr.SetType
	attrs string
}

// entry is one cache slot (an index, a statistics block, a uniqueness
// verdict), built exactly once: the goroutine that registers the entry
// builds val and closes done; everyone else blocks on done.
type entry[T any] struct {
	done chan struct{}
	val  T
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

// NewIndexStore creates an empty store over the instance.
func NewIndexStore(in *instance.Instance) *IndexStore {
	return &IndexStore{
		in:      in,
		indexes: make(map[cacheKey]*entry[*instance.Index]),
		stats:   make(map[cacheKey]*entry[*SetStats]),
		uniques: make(map[cacheKey]*entry[bool]),
	}
}

// Instance returns the instance the store indexes.
func (s *IndexStore) Instance() *instance.Instance { return s.in }

// Observe counts the store's work on reg under the muse_index_* names
// (DESIGN.md §8) and returns the store. Only events after the call are
// counted; call it right after NewIndexStore, before the store is
// shared across goroutines. A nil reg is a no-op.
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

// Index returns the hash index of the top-level set st over the given
// attribute list (single- or composite-attribute), building it on
// first use. Attrs must be in canonical (sorted) order — Eval's plans
// guarantee this. The returned index is shared and read-only.
func (s *IndexStore) Index(st *nr.SetType, attrs []string) *instance.Index {
	s.cProbes.Inc()
	x, hit := cached(s, s.indexes, st, attrs, func() *instance.Index {
		set := s.in.Top(st)
		// Counted before the entry is published, so whoever sees the
		// index sees its build.
		s.cBuilds.Inc()
		return instance.NewIndex(set.View(), slotsOf(set, attrs))
	})
	if hit {
		s.cHits.Inc()
	}
	return x
}

// countDistinct is the counting pass behind Stats and unique. Tests
// wrap it to count passes.
var countDistinct = instance.CountDistinct

// unique reports whether the top-level set st holds the attribute list
// unique: every tuple sets each attribute and no two tuples agree on
// all of them. Attrs must be in canonical (sorted) order. Each list is
// decided once, by one counting pass over the set, and only the
// verdict is kept.
func (s *IndexStore) unique(st *nr.SetType, attrs []string) bool {
	v, _ := cached(s, s.uniques, st, attrs, func() bool {
		set := s.in.Top(st)
		distinct, unset := countDistinct(set.View(), [][]int{slotsOf(set, attrs)})
		return unset[0] == 0 && distinct[0] == set.Len()
	})
	return v
}

// Stats returns the statistics block for the set type, computing it on
// first use. For top-level sets one counting pass collects cardinality
// and per-attribute distinct counts; for nested set types only the
// cardinality/occurrence aggregate is collected (their atoms are never
// index-probed — nested atoms follow the parent's SetRef).
func (s *IndexStore) Stats(st *nr.SetType) *SetStats {
	v, _ := cached(s, s.stats, st, nil, func() *SetStats {
		stats := &SetStats{Distinct: make(map[string]int, len(st.Atoms))}
		if st.Parent != nil {
			for _, occ := range s.in.Occurrences(st) {
				stats.Card += occ.Len()
				stats.Occs++
			}
			return stats
		}
		set := s.in.Top(st)
		stats.Card, stats.Occs = set.Len(), 1
		lists := make([][]int, len(st.Atoms))
		for i, slot := range slotsOf(set, st.Atoms) {
			lists[i] = []int{slot}
		}
		distinct, _ := countDistinct(set.View(), lists)
		for i, a := range st.Atoms {
			stats.Distinct[a] = distinct[i]
		}
		return stats
	})
	return v
}

// cached returns the (set, attribute list) entry of cache, building it
// with build on first use while concurrent callers for the same entry
// wait; hit reports whether the entry already existed. The build's
// wall-clock counts toward muse_index_build_nanos_total.
func cached[T any](s *IndexStore, cache map[cacheKey]*entry[T], st *nr.SetType, attrs []string, build func() T) (val T, hit bool) {
	s.mu.Lock()
	// The attribute list is composed in the store's buffer, so a hit
	// allocates nothing.
	key := s.keyBuf[:0]
	for _, a := range attrs {
		key = append(append(key, a...), '\x00')
	}
	s.keyBuf = key
	e, hit := cache[cacheKey{st, string(key)}]
	if !hit {
		e = &entry[T]{done: make(chan struct{})}
		cache[cacheKey{st, string(key)}] = e
	}
	s.mu.Unlock()
	if hit {
		<-e.done
		return e.val, true
	}
	start := time.Now()
	e.val = build()
	s.cBuildNanos.Add(int64(time.Since(start)))
	close(e.done)
	return e.val, false
}

// slotsOf resolves attrs to slot positions in the layout of the set's
// own tuples.
func slotsOf(set *instance.SetVal, attrs []string) []int {
	slots := make([]int, len(attrs))
	for i, a := range attrs {
		slots[i] = set.Type.Slot(a)
	}
	return slots
}
