package deps

import (
	"fmt"
	"strings"
	"sync"

	"muse/internal/nr"
)

// FD is a functional dependency From -> To on the atoms of one nested
// set.
type FD struct {
	Set  nr.Path
	From []string
	To   []string
}

// String renders the FD, e.g. "Companies: cname -> location".
func (f FD) String() string {
	return fmt.Sprintf("%s: %s -> %s", f.Set, strings.Join(f.From, ","), strings.Join(f.To, ","))
}

// Key is a key constraint: Attrs functionally determine all atoms of
// the set. Following the paper, a key is a minimal such set, and the
// common case is at most one key per nested set.
type Key struct {
	Set   nr.Path
	Attrs []string
}

// String renders the key, e.g. "key Companies(cid)".
func (k Key) String() string {
	return fmt.Sprintf("key %s(%s)", k.Set, strings.Join(k.Attrs, ","))
}

// Ref is a referential constraint: every tuple of FromSet has a
// matching tuple in ToSet agreeing on the paired attributes (a foreign
// key in the relational case, e.g. f1: Projects(cid) -> Companies(cid)).
type Ref struct {
	Name      string
	FromSet   nr.Path
	FromAttrs []string
	ToSet     nr.Path
	ToAttrs   []string
}

// String renders the constraint, e.g.
// "ref f1: Projects(cid) -> Companies(cid)".
func (r Ref) String() string {
	name := r.Name
	if name != "" {
		name += ": "
	}
	return fmt.Sprintf("ref %s%s(%s) -> %s(%s)", name, r.FromSet,
		strings.Join(r.FromAttrs, ","), r.ToSet, strings.Join(r.ToAttrs, ","))
}

// Set bundles the constraints declared on one schema.
type Set struct {
	Schema *nr.Schema
	Cat    *nr.Catalog
	Keys   []Key
	FDs    []FD
	Refs   []Ref

	// mu guards the per-set-type memos below, which cache FDsOf and
	// CandidateKeys (both are recomputed constantly on the wizards' hot
	// paths). Adding a key or FD invalidates them. Because of mu, a Set
	// must not be copied by value; derive variants with a fresh
	// composite literal instead.
	mu     sync.Mutex
	fdMemo map[*nr.SetType][]FD
	ckMemo map[*nr.SetType][]Key
}

// NewSet creates an empty constraint set for the schema.
func NewSet(cat *nr.Catalog) *Set {
	return &Set{Schema: cat.Schema, Cat: cat}
}

// AddKey declares a key, validating that the set and attributes exist.
func (s *Set) AddKey(set string, attrs ...string) error {
	st, err := s.lookup(set, attrs)
	if err != nil {
		return err
	}
	if len(attrs) == 0 {
		return fmt.Errorf("deps: empty key on %s", st)
	}
	s.Keys = append(s.Keys, Key{Set: st.Path, Attrs: attrs})
	s.invalidate()
	return nil
}

func (s *Set) invalidate() {
	s.mu.Lock()
	s.fdMemo, s.ckMemo = nil, nil
	s.mu.Unlock()
}

// AddFD declares a functional dependency, validating attributes.
func (s *Set) AddFD(set string, from, to []string) error {
	st, err := s.lookup(set, append(append([]string{}, from...), to...))
	if err != nil {
		return err
	}
	if len(from) == 0 || len(to) == 0 {
		return fmt.Errorf("deps: FD with empty side on %s", st)
	}
	s.FDs = append(s.FDs, FD{Set: st.Path, From: from, To: to})
	s.invalidate()
	return nil
}

// AddRef declares a referential constraint, validating both endpoints.
func (s *Set) AddRef(name, fromSet string, fromAttrs []string, toSet string, toAttrs []string) error {
	from, err := s.lookup(fromSet, fromAttrs)
	if err != nil {
		return err
	}
	to, err := s.lookup(toSet, toAttrs)
	if err != nil {
		return err
	}
	if len(fromAttrs) == 0 || len(fromAttrs) != len(toAttrs) {
		return fmt.Errorf("deps: ref %s has mismatched attribute lists", name)
	}
	s.Refs = append(s.Refs, Ref{Name: name, FromSet: from.Path, FromAttrs: fromAttrs, ToSet: to.Path, ToAttrs: toAttrs})
	return nil
}

// MustAddKey etc. panic on error; for statically known constraints.
func (s *Set) MustAddKey(set string, attrs ...string) {
	if err := s.AddKey(set, attrs...); err != nil {
		panic(err)
	}
}

// MustAddFD is AddFD, panicking on error.
func (s *Set) MustAddFD(set string, from, to []string) {
	if err := s.AddFD(set, from, to); err != nil {
		panic(err)
	}
}

// MustAddRef is AddRef, panicking on error.
func (s *Set) MustAddRef(name, fromSet string, fromAttrs []string, toSet string, toAttrs []string) {
	if err := s.AddRef(name, fromSet, fromAttrs, toSet, toAttrs); err != nil {
		panic(err)
	}
}

func (s *Set) lookup(set string, attrs []string) (*nr.SetType, error) {
	st := s.Cat.ByPath(nr.ParsePath(set))
	if st == nil {
		var err error
		st, err = s.Cat.ByName(set)
		if err != nil {
			return nil, fmt.Errorf("deps: unknown set %q in schema %s", set, s.Schema.Name)
		}
	}
	for _, a := range attrs {
		if !st.HasAtom(a) {
			return nil, fmt.Errorf("deps: set %s has no atom %q", st, a)
		}
	}
	return st, nil
}

// KeysOf returns the keys declared on the given set.
func (s *Set) KeysOf(st *nr.SetType) []Key {
	var out []Key
	for _, k := range s.Keys {
		if k.Set.Equal(st.Path) {
			out = append(out, k)
		}
	}
	return out
}

// FDsOf returns all FDs holding on the set: declared FDs plus one FD
// per key (key attrs -> all atoms). The result is memoized until the
// next AddKey/AddFD; callers must treat it as read-only.
func (s *Set) FDsOf(st *nr.SetType) []FD {
	s.mu.Lock()
	if out, ok := s.fdMemo[st]; ok {
		s.mu.Unlock()
		return out
	}
	s.mu.Unlock()
	var out []FD
	for _, f := range s.FDs {
		if f.Set.Equal(st.Path) {
			out = append(out, f)
		}
	}
	for _, k := range s.KeysOf(st) {
		out = append(out, FD{Set: st.Path, From: k.Attrs, To: append([]string{}, st.Atoms...)})
	}
	s.mu.Lock()
	if s.fdMemo == nil {
		s.fdMemo = make(map[*nr.SetType][]FD)
	}
	s.fdMemo[st] = out
	s.mu.Unlock()
	return out
}

// RefsOf returns the referential constraints whose FromSet is st.
func (s *Set) RefsOf(st *nr.SetType) []Ref {
	var out []Ref
	for _, r := range s.Refs {
		if r.FromSet.Equal(st.Path) {
			out = append(out, r)
		}
	}
	return out
}

// Closure computes the attribute closure of start under the FDs (and
// key-induced FDs) of the set.
func (s *Set) Closure(st *nr.SetType, start []string) map[string]bool {
	var imps []Implication
	for _, f := range s.FDsOf(st) {
		imps = append(imps, Implication{From: f.From, To: f.To})
	}
	return CloseOver(imps, start)
}

// CandidateKeys derives the minimal keys of a set from its functional
// dependencies (including key-induced FDs): the minimal attribute
// subsets whose closure covers all atoms. The paper's Sec. III-C uses
// this to characterize when an FD set is "single-keyed", which decides
// whether the single-key probe order or the multi-key protocol
// applies. Enumeration is exponential in the attribute count and
// capped; sets wider than the cap fall back to the declared keys. The
// result is memoized until the next AddKey/AddFD; callers must treat
// it as read-only.
func (s *Set) CandidateKeys(st *nr.SetType) []Key {
	s.mu.Lock()
	if out, ok := s.ckMemo[st]; ok {
		s.mu.Unlock()
		return out
	}
	s.mu.Unlock()
	out := s.candidateKeys(st)
	s.mu.Lock()
	if s.ckMemo == nil {
		s.ckMemo = make(map[*nr.SetType][]Key)
	}
	s.ckMemo[st] = out
	s.mu.Unlock()
	return out
}

func (s *Set) candidateKeys(st *nr.SetType) []Key {
	const maxAttrs = 16
	atoms := st.Atoms
	if len(atoms) > maxAttrs {
		return s.KeysOf(st)
	}
	fds := s.FDsOf(st)
	if len(fds) == 0 {
		return nil
	}
	// The enumeration visits up to 2^maxAttrs subsets, so the closure
	// runs on bitmasks rather than string maps: attributes (the set's
	// atoms first, then any extra attributes the FDs mention — chains
	// may pass through them) get bit positions, and one closure is a
	// handful of AND/OR fixpoint rounds with zero allocations.
	idx := make(map[string]int, len(atoms))
	for i, a := range atoms {
		idx[a] = i
	}
	next := len(atoms)
	pos := func(a string) int {
		if i, ok := idx[a]; ok {
			return i
		}
		idx[a] = next
		next++
		return next - 1
	}
	type maskImp struct{ from, to uint64 }
	imps := make([]maskImp, 0, len(fds))
	for _, f := range fds {
		var im maskImp
		for _, a := range f.From {
			im.from |= 1 << pos(a)
		}
		for _, a := range f.To {
			im.to |= 1 << pos(a)
		}
		imps = append(imps, im)
	}
	if next > 62 {
		return s.KeysOf(st) // more attributes than bitset bits; rare
	}
	atomsMask := uint64(1)<<len(atoms) - 1
	isKey := func(mask int) bool {
		cl := uint64(mask)
		for changed := true; changed; {
			changed = false
			for _, im := range imps {
				if cl&im.from == im.from && cl|im.to != cl {
					cl |= im.to
					changed = true
				}
			}
		}
		return cl&atomsMask == atomsMask
	}
	// Enumerate by ascending popcount so supersets of found keys can be
	// pruned (minimality).
	var keys []int
	for size := 1; size <= len(atoms); size++ {
		for mask := 1; mask < 1<<len(atoms); mask++ {
			if popcount(mask) != size {
				continue
			}
			superset := false
			for _, k := range keys {
				if mask&k == k {
					superset = true
					break
				}
			}
			if superset || !isKey(mask) {
				continue
			}
			keys = append(keys, mask)
		}
	}
	out := make([]Key, 0, len(keys))
	for _, mask := range keys {
		var attrs []string
		for i, a := range atoms {
			if mask&(1<<i) != 0 {
				attrs = append(attrs, a)
			}
		}
		out = append(out, Key{Set: st.Path, Attrs: attrs})
	}
	return out
}

func popcount(x int) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// SingleKeyedFDs reports whether the set's FDs (and declared keys)
// induce at most one candidate key — the condition under which the
// single-key probe order applies (Sec. III-C).
func (s *Set) SingleKeyedFDs(st *nr.SetType) bool {
	return len(s.CandidateKeys(st)) <= 1
}

// Implication is a generic implication From ⊆ X ⇒ To ⊆ X over opaque
// string elements, used for attribute-closure computation both on
// single sets and on joined tableaux (where elements are "var.attr"
// terms).
type Implication struct {
	From []string
	To   []string
}

// CloseOver computes the closure of start under the implications, by
// naive fixpoint (implication sets in Muse are tiny).
func CloseOver(imps []Implication, start []string) map[string]bool {
	closed := make(map[string]bool, len(start))
	for _, a := range start {
		closed[a] = true
	}
	for changed := true; changed; {
		changed = false
		for _, imp := range imps {
			all := true
			for _, a := range imp.From {
				if !closed[a] {
					all = false
					break
				}
			}
			if !all {
				continue
			}
			for _, a := range imp.To {
				if !closed[a] {
					closed[a] = true
					changed = true
				}
			}
		}
	}
	return closed
}
