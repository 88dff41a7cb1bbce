package query

import (
	"slices"
	"sync"

	"muse/internal/instance"
	"muse/internal/nr"
)

// IndexStore caches statistics and uniqueness verdicts over one source
// instance, so a whole design session (both wizards, the ranker) counts
// each set once: the wizards refute probes from the unique attributes,
// and the ranker scores options from the statistics. It is safe for
// concurrent use; every statistics block and verdict is built exactly
// once (singleflight per key) even when several callers race for it.
// Every count comes from instance.CountDistinct, so the store renders
// no value keys.
//
// The store assumes the instance is immutable while it is shared — the
// wizards only ever read the real source instance, and DESIGN.md §7
// records the invariant.
type IndexStore struct {
	in *instance.Instance

	mu      sync.Mutex
	stats   map[cacheKey]*entry[*SetStats]
	uniques map[cacheKey]*entry[bool]
	keyBuf  []byte // attr-list key scratch, guarded by mu
}

// cacheKey names a cache slot: a set type and an attribute list, each
// attribute followed by 0x00 (empty for a statistics block).
type cacheKey struct {
	st    *nr.SetType
	attrs string
}

// entry is one cache slot (a statistics block, a uniqueness verdict),
// built exactly once: the goroutine that registers the entry builds val
// and closes done; everyone else blocks on done.
type entry[T any] struct {
	done chan struct{}
	val  T
}

// SetStats are one top-level set's statistics, collected in one pass
// over it.
type SetStats struct {
	// Card is the tuple count.
	Card int
	// Distinct maps each atom attribute to its number of distinct
	// non-nil values, and Set to the number of tuples that set it.
	Distinct, Set map[string]int
}

// NewIndexStore creates an empty store over the instance.
func NewIndexStore(in *instance.Instance) *IndexStore {
	return &IndexStore{
		in:      in,
		stats:   make(map[cacheKey]*entry[*SetStats]),
		uniques: make(map[cacheKey]*entry[bool]),
	}
}

// Instance returns the instance the store counts.
func (s *IndexStore) Instance() *instance.Instance { return s.in }

// countDistinct is the counting pass behind Stats and unique. Tests
// wrap it to count passes.
var countDistinct = instance.CountDistinct

// unique reports whether the top-level set st holds the attribute list
// unique: every tuple sets each attribute and no two tuples agree on
// all of them. Attrs must be in canonical (sorted) order. Each list is
// decided once, by one counting pass over the set, and only the
// verdict is kept.
func (s *IndexStore) unique(st *nr.SetType, attrs []string) bool {
	return cached(s, s.uniques, st, attrs, func() bool {
		set := s.in.Top(st)
		distinct, unset := countDistinct(set.View(), [][]int{slotsOf(set, attrs)})
		return unset[0] == 0 && distinct[0] == set.Len()
	})
}

// UniqueAttrs returns an attribute list, drawn from attrs, that the
// top-level set st holds unique: the first of st's atoms in attrs whose
// distinct count equals the set's cardinality, else attrs itself when
// the store's uniqueness pass confirms it; nil when neither holds.
// Attrs must be in canonical (sorted) order. The list returned aliases
// st.Atoms or attrs and is read-only; a warm call allocates nothing.
func (s *IndexStore) UniqueAttrs(st *nr.SetType, attrs []string) []string {
	if len(attrs) == 0 {
		return nil
	}
	stats := s.Stats(st)
	for i, a := range st.Atoms {
		if stats.Distinct[a] == stats.Card {
			if _, ok := slices.BinarySearch(attrs, a); ok {
				return st.Atoms[i : i+1]
			}
		}
	}
	if len(attrs) > 1 && s.unique(st, attrs) {
		return attrs
	}
	return nil
}

// Stats returns the statistics block for the top-level set st,
// computing it on first use by one counting pass.
func (s *IndexStore) Stats(st *nr.SetType) *SetStats {
	return cached(s, s.stats, st, nil, func() *SetStats {
		set := s.in.Top(st)
		stats := &SetStats{Card: set.Len(), Distinct: make(map[string]int, len(st.Atoms)), Set: make(map[string]int, len(st.Atoms))}
		lists := make([][]int, len(st.Atoms))
		for i, slot := range slotsOf(set, st.Atoms) {
			lists[i] = []int{slot}
		}
		distinct, unset := countDistinct(set.View(), lists)
		for i, a := range st.Atoms {
			stats.Distinct[a] = distinct[i]
			stats.Set[a] = stats.Card - unset[i]
		}
		return stats
	})
}

// cached returns the (set, attribute list) entry of cache, building it
// with build on first use while concurrent callers for the same entry
// wait.
func cached[T any](s *IndexStore, cache map[cacheKey]*entry[T], st *nr.SetType, attrs []string, build func() T) T {
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
		return e.val
	}
	e.val = build()
	close(e.done)
	return e.val
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
