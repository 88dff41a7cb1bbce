package query

import (
	"slices"
	"sync"

	"muse/internal/instance"
	"muse/internal/nr"
)

// IndexStore holds the statistics and uniqueness verdicts of one
// source instance, so a whole design session (both wizards, the
// ranker), or every session a server hosts over one scenario, counts
// each set once: the wizards refute probes from the unique attributes,
// and the ranker scores options from the statistics. It is safe for
// concurrent use. One mutex serializes its passes, so each statistics
// block and each verdict is counted once even when several callers race
// for it. Every count comes from the instance's exact counter
// (instance.Distinct, instance.Unique), so the store renders no value
// keys.
//
// The store assumes the instance is immutable while it is shared — the
// wizards only ever read the real source instance, and DESIGN.md §7
// records the invariant.
type IndexStore struct {
	in *instance.Instance

	// mu serializes the passes and guards the fields below.
	mu     sync.Mutex
	sets   map[*nr.SetType]*setFacts
	slots  []int // the slot list of the current pass
	passes Passes
}

// Passes counts the counting passes a store has run.
type Passes struct {
	// Stats counts statistics passes: one per set, over all its atoms.
	Stats int
	// Unique counts uniqueness passes: one per attribute list that
	// neither the statistics nor a known verdict decides.
	Unique int
}

// setFacts is what the store knows of one top-level set: its
// statistics, and the verdicts of its uniqueness passes as bitmasks of
// atom positions.
type setFacts struct {
	stats SetStats
	// unique holds lists found unique; repeated holds lists that every
	// tuple sets and two tuples agree on.
	unique, repeated []uint64
}

// maskAtoms is the most atoms a set may have for the store to keep its
// verdicts; a list of a wider set is decided by a pass each time.
const maskAtoms = 64

// SetStats are one top-level set's statistics, collected by one
// statistics pass: a counter pass over its tuples per atom.
type SetStats struct {
	// Card is the tuple count.
	Card int
	// Distinct holds, for each atom of the set in order, its number of
	// distinct non-nil values, and Set the number of tuples that set it.
	Distinct, Set []int
}

// NewIndexStore creates an empty store over the instance.
func NewIndexStore(in *instance.Instance) *IndexStore {
	return &IndexStore{in: in, sets: make(map[*nr.SetType]*setFacts)}
}

// Instance returns the instance the store counts.
func (s *IndexStore) Instance() *instance.Instance { return s.in }

// Passes returns the counting passes the store has run so far.
func (s *IndexStore) Passes() Passes {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.passes
}

// Stats returns the statistics block of the top-level set st,
// computing it on first use by one statistics pass. The block is
// read-only.
func (s *IndexStore) Stats(st *nr.SetType) *SetStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &s.facts(st).stats
}

// UniqueAttrs returns an attribute list, drawn from attrs, that the
// top-level set st holds unique: the first of st's atoms in attrs whose
// distinct count equals the set's cardinality, else attrs itself when
// the store decides it unique; nil when neither holds. Attrs must be
// atoms of st in canonical (sorted) order. The list returned aliases
// st.Atoms or attrs and is read-only; a call that runs no pass
// allocates nothing.
func (s *IndexStore) UniqueAttrs(st *nr.SetType, attrs []string) []string {
	if len(attrs) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.facts(st)
	for i, a := range st.Atoms {
		if f.stats.Distinct[i] == f.stats.Card {
			if _, ok := slices.BinarySearch(attrs, a); ok {
				return st.Atoms[i : i+1]
			}
		}
	}
	if len(attrs) > 1 && s.decide(st, f, attrs) {
		return attrs
	}
	return nil
}

// facts returns what the store knows of the top-level set st, counting
// its statistics on first use: one counter pass per atom, which
// allocates nothing beyond the block. s.mu must be held.
func (s *IndexStore) facts(st *nr.SetType) *setFacts {
	if f := s.sets[st]; f != nil {
		return f
	}
	s.passes.Stats++
	tuples := s.in.Top(st).View()
	n := len(st.Atoms)
	counts := make([]int, 2*n)
	f := &setFacts{stats: SetStats{Card: len(tuples), Distinct: counts[:n:n], Set: counts[n:]}}
	for i := range n {
		// Atoms take a tuple's first slots.
		s.slots = append(s.slots[:0], i)
		d, unset := instance.Distinct(tuples, s.slots)
		f.stats.Distinct[i], f.stats.Set[i] = d, len(tuples)-unset
	}
	s.sets[st] = f
	return f
}

// decide reports whether st holds the atom list attrs unique: every
// tuple sets each atom and no two tuples agree on all of them. It
// decides without a pass where it can: a list with an atom some tuple
// leaves unset is not unique, and one with an atom whose values are
// distinct is unique.
// Every atom of any other list is set in every tuple, so it is unique
// when it holds a list found unique, and not unique when a list found
// repeated holds it. Else one uniqueness pass decides it, stopping at
// the first repeat, and its verdict is kept. s.mu must be held, and f
// is st's facts.
func (s *IndexStore) decide(st *nr.SetType, f *setFacts, attrs []string) bool {
	var list uint64
	distinctAtom := false
	s.slots = s.slots[:0]
	for _, a := range attrs {
		i := st.Slot(a)
		if f.stats.Set[i] < f.stats.Card {
			return false
		}
		distinctAtom = distinctAtom || f.stats.Distinct[i] == f.stats.Card
		s.slots = append(s.slots, i)
		list |= 1 << i
	}
	if distinctAtom || len(attrs) == 1 {
		return distinctAtom
	}
	keep := len(st.Atoms) <= maskAtoms
	if keep {
		for _, u := range f.unique {
			if u&^list == 0 {
				return true
			}
		}
		for _, r := range f.repeated {
			if list&^r == 0 {
				return false
			}
		}
	}
	s.passes.Unique++
	unique := instance.Unique(s.in.Top(st).View(), s.slots)
	switch {
	case !keep:
	case unique:
		f.unique = append(f.unique, list)
	default:
		f.repeated = append(f.repeated, list)
	}
	return unique
}
