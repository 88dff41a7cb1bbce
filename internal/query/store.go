package query

import (
	"sync"
	"time"

	"muse/internal/instance"
	"muse/internal/nr"
	"muse/internal/obs"
)

// IndexStore caches hash indexes, statistics and uniqueness verdicts
// over one source instance, so a whole design session (the wizard, its
// prefetch workers, Muse-D, the join wizard) builds each index at most
// once instead of once per Eval. It is safe for concurrent use; every
// index, statistics block and verdict is built exactly once
// (singleflight per key) even when several evaluations race for it.
//
// The store assumes the instance is immutable while indexed — the
// wizards only ever read the real source instance, and DESIGN.md §7
// records the invariant. Mutating the instance after indexing yields
// stale candidate sets.
type IndexStore struct {
	in *instance.Instance

	mu      sync.Mutex
	indexes map[*nr.SetType]map[string]*entry[map[string][]*instance.Tuple]
	stats   map[*nr.SetType]*entry[*SetStats]
	uniques map[*nr.SetType]map[string]*entry[bool]
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
		indexes: make(map[*nr.SetType]map[string]*entry[map[string][]*instance.Tuple]),
		stats:   make(map[*nr.SetType]*entry[*SetStats]),
		uniques: make(map[*nr.SetType]map[string]*entry[bool]),
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
	e, built := lookupAttrs(s.indexes, st, s.attrsKey(attrs))
	s.probes++
	if built {
		s.hits++
		s.mu.Unlock()
		s.cProbes.Inc()
		s.cHits.Inc()
		<-e.done
		return e.val
	}
	s.mu.Unlock()
	s.cProbes.Inc()

	start := time.Now()
	e.val = buildIndex(s.in.Top(st), attrs)
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
	return e.val
}

// unique reports whether the top-level set st holds the attribute list
// unique: every tuple sets each attribute and no two tuples agree on
// all of them. Attrs must be in canonical (sorted) order. Each list is
// decided once, by one pass over the set, and only the verdict is
// kept; the pass counts toward the store's build time.
func (s *IndexStore) unique(st *nr.SetType, attrs []string) bool {
	s.mu.Lock()
	e, built := lookupAttrs(s.uniques, st, s.attrsKey(attrs))
	s.mu.Unlock()
	if built {
		<-e.done
		return e.val
	}
	start := time.Now()
	slots := make([]int, len(attrs))
	for i, a := range attrs {
		slots[i] = st.Slot(a)
	}
	e.val = uniqueOn(s.in.Top(st).View(), slots)
	nanos := int64(time.Since(start))
	s.mu.Lock()
	s.buildNanos += nanos
	s.mu.Unlock()
	s.cBuildNanos.Add(nanos)
	close(e.done)
	return e.val
}

// attrsKey composes the identity key of an attribute list in the
// store's scratch buffer. Callers hold mu and use the key before
// releasing it.
func (s *IndexStore) attrsKey(attrs []string) []byte {
	buf := s.keyBuf[:0]
	for _, a := range attrs {
		buf = append(buf, a...)
		buf = append(buf, '\x00')
	}
	s.keyBuf = buf
	return buf
}

// lookupAttrs finds the (set, attribute list) entry of a cache, or
// registers a new one that the caller must build; built reports which.
// Callers hold the store's mutex.
func lookupAttrs[T any](cache map[*nr.SetType]map[string]*entry[T], st *nr.SetType, key []byte) (e *entry[T], built bool) {
	byAttrs := cache[st]
	if e, ok := byAttrs[string(key)]; ok {
		return e, true
	}
	if byAttrs == nil {
		byAttrs = make(map[string]*entry[T])
		cache[st] = byAttrs
	}
	e = &entry[T]{done: make(chan struct{})}
	byAttrs[string(key)] = e
	return e, false
}

// hashValues hashes a tuple's values over an attribute list in the
// uniqueness pass. Tests replace it to force every hash equal.
var hashValues = instance.HashValues

// uniqueOn reports whether no two tuples agree on the given slots and
// every tuple sets each of them. Tuples are keyed by the hash of their
// slot values, and a hash hit counts as agreement only when SameValue
// confirms every slot, so collisions cannot fake a duplicate.
func uniqueOn(tuples []*instance.Tuple, slots []int) bool {
	first := make(map[uint64]*instance.Tuple, len(tuples))
	var more map[uint64][]*instance.Tuple
	vals := make([]instance.Value, len(slots))
	agree := func(a, b *instance.Tuple) bool {
		for _, sl := range slots {
			if !instance.SameValue(a.ValAt(sl), b.ValAt(sl)) {
				return false
			}
		}
		return true
	}
	for _, t := range tuples {
		for i, sl := range slots {
			if vals[i] = t.ValAt(sl); vals[i] == nil {
				return false
			}
		}
		h := hashValues(vals)
		prev, ok := first[h]
		if !ok {
			first[h] = t
			continue
		}
		if agree(prev, t) {
			return false
		}
		for _, p := range more[h] {
			if agree(p, t) {
				return false
			}
		}
		if more == nil {
			more = make(map[uint64][]*instance.Tuple)
		}
		more[h] = append(more[h], t)
	}
	return true
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
		return e.val
	}
	e := &entry[*SetStats]{done: make(chan struct{})}
	s.stats[st] = e
	s.mu.Unlock()

	start := time.Now()
	e.val = collectStats(s.in, st)
	nanos := int64(time.Since(start))
	s.mu.Lock()
	s.buildNanos += nanos
	s.mu.Unlock()
	s.cBuildNanos.Add(nanos)
	close(e.done)
	return e.val
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
