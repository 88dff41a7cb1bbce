package homo

import (
	"sort"

	"muse/internal/instance"
)

// Homomorphic reports whether a homomorphism a → b exists.
func Homomorphic(a, b *instance.Instance) bool {
	_, ok := find(a, b, false)
	return ok
}

// Equivalent reports whether a and b are homomorphically equivalent
// (homomorphisms both ways). Two mappings have the same space of
// solutions iff their universal solutions are equivalent in this sense.
func Equivalent(a, b *instance.Instance) bool {
	return Homomorphic(a, b) && Homomorphic(b, a)
}

// Isomorphic reports whether a one-to-one homomorphism exists in both
// directions. The probe instances Muse constructs are chosen so that
// design alternatives yield non-isomorphic (even when homomorphically
// equivalent) target instances.
func Isomorphic(a, b *instance.Instance) bool {
	if _, ok := find(a, b, true); !ok {
		return false
	}
	_, ok := find(b, a, true)
	return ok
}

// Find returns a homomorphism a → b as a table from a's nulls and
// SetIDs, each keyed as a one-value vector, to values of b, or false if
// none exists.
func Find(a, b *instance.Instance) (*instance.VecMap[instance.Value], bool) {
	return find(a, b, false)
}

// obligation records that every tuple of set occurrence src (in a)
// must map into the occurrence of b identified by dst. Source tuples
// are pre-ordered most-constrained-first (fewest shape-compatible
// destination candidates), which prunes the symmetric,
// null-heavy instances the wizards compare.
type obligation struct {
	src    *instance.SetVal
	dst    *instance.SetVal
	tuples []*instance.Tuple
}

type searcher struct {
	a, b      *instance.Instance
	injective bool
	bindings  instance.VecMap[instance.Value] // null/SetID in a → value in b
	used      instance.VecMap[bool]           // values in b used as binding targets (injective mode)
	trail     []instance.Value                // bound values of a in binding order, for backtracking
	steps     int                             // unification attempts, for the search budget
	key       [1]instance.Value               // scratch one-value key (see one)
}

// searchBudget bounds the backtracking search. Instances the wizards
// compare are tiny; a search that exceeds the budget is abandoned and
// reported as "no homomorphism found" (sound for the wizard: the
// abandoned direction fails loudly in the oracle rather than silently
// picking a scenario).
const searchBudget = 1 << 21

// newObligation pre-orders the source tuples most-constrained-first.
// It returns ok=false when some source tuple has no shape-compatible
// destination at all.
func (s *searcher) newObligation(src, dst *instance.SetVal) (obligation, bool) {
	tuples := src.View()
	cands := dst.View()
	counts := make(map[*instance.Tuple]int, len(tuples))
	for _, t := range tuples {
		n := 0
		for _, cand := range cands {
			if s.shapeCompatible(t, cand) {
				n++
			}
		}
		if n == 0 {
			return obligation{}, false
		}
		counts[t] = n
	}
	ordered := append([]*instance.Tuple{}, tuples...)
	sort.SliceStable(ordered, func(i, j int) bool { return counts[ordered[i]] < counts[ordered[j]] })
	return obligation{src: src, dst: dst, tuples: ordered}, true
}

// shapeCompatible is a binding-independent prefilter: constants must
// match exactly, nulls can only land on nulls (or constants when not
// injective), SetIDs only on SetIDs.
func (s *searcher) shapeCompatible(t, cand *instance.Tuple) bool {
	for _, label := range t.Set.Atoms {
		if !s.slotCompatible(t.Get(label), cand.Get(label)) {
			return false
		}
	}
	for _, label := range t.Set.SetFields {
		if !s.slotCompatible(t.Get(label), cand.Get(label)) {
			return false
		}
	}
	return true
}

func (s *searcher) slotCompatible(v, cv instance.Value) bool {
	if (v == nil) != (cv == nil) {
		return false
	}
	if v == nil {
		return true
	}
	switch v.(type) {
	case instance.Const:
		if !instance.SameValue(v, cv) {
			return false
		}
	case *instance.Null:
		if instance.IsSetRef(cv) || (s.injective && !instance.IsNull(cv)) {
			return false
		}
	case *instance.SetRef:
		if !instance.IsSetRef(cv) {
			return false
		}
	}
	return true
}

func find(a, b *instance.Instance, injective bool) (*instance.VecMap[instance.Value], bool) {
	if a.Schema != b.Schema && a.Schema.Name != b.Schema.Name {
		return nil, false
	}
	s := &searcher{a: a, b: b, injective: injective}
	// Seed: every top-level set maps to its counterpart.
	var obs []obligation
	for _, st := range a.Cat.TopLevel() {
		src := a.Set(instance.TopID(st))
		if src == nil || src.Len() == 0 {
			continue
		}
		// Resolve the matching set type in b's catalog by path.
		bt := b.Cat.ByPath(st.Path)
		if bt == nil {
			return nil, false
		}
		dst := b.Set(instance.TopID(bt))
		if dst == nil {
			return nil, false
		}
		ob, ok := s.newObligation(src, dst)
		if !ok {
			return nil, false
		}
		obs = append(obs, ob)
	}
	if s.solve(obs, 0, 0) {
		return &s.bindings, true
	}
	return nil, false
}

// solve processes obligations in order; within an obligation, tuples
// of the source occurrence are matched one at a time (index ti).
func (s *searcher) solve(obs []obligation, oi, ti int) bool {
	if oi >= len(obs) {
		return true
	}
	if s.steps > searchBudget {
		return false
	}
	ob := obs[oi]
	tuples := ob.tuples
	if ti >= len(tuples) {
		return s.solve(obs, oi+1, 0)
	}
	t := tuples[ti]
	// Read-only view: the reorder below builds a fresh slice, and the
	// compared instances are not mutated during a search.
	candidates := ob.dst.View()
	// Greedy identity bias: when the destination holds a tuple equal to
	// t (the common case when comparing equal or near-equal chase
	// results), try it first — the search then runs essentially
	// linearly instead of exploring permutations of interchangeable
	// Skolem terms.
	for i, cand := range candidates {
		if i > 0 && instance.SameTuple(cand, t) {
			reordered := make([]*instance.Tuple, 0, len(candidates))
			reordered = append(reordered, cand)
			reordered = append(reordered, candidates[:i]...)
			reordered = append(reordered, candidates[i+1:]...)
			candidates = reordered
			break
		}
	}
	// In injective mode a candidate that an earlier tuple of this
	// occurrence already consumed needs no check of its own: distinct
	// source tuples have distinct images under an injective binding, so
	// unifyTuple rejects it.
	for _, cand := range candidates {
		s.steps++
		if !s.shapeCompatible(t, cand) {
			continue
		}
		undo := len(s.trail)
		newObs, ok := s.unifyTuple(t, cand)
		if ok {
			if s.solve(append(obs, newObs...), oi, ti+1) {
				return true
			}
		}
		s.restore(undo)
	}
	return false
}

// one returns v as a one-value key, in the searcher's scratch: it is
// valid until the next call.
func (s *searcher) one(v instance.Value) []instance.Value {
	s.key[0] = v
	return s.key[:]
}

func (s *searcher) restore(mark int) {
	for len(s.trail) > mark {
		v := s.trail[len(s.trail)-1]
		s.trail = s.trail[:len(s.trail)-1]
		if s.injective {
			img, _ := s.bindings.Get(s.one(v))
			s.used.Delete(s.one(img))
		}
		s.bindings.Delete(s.one(v))
	}
}

// bind maps v, a null or SetID of a, to img, unless v is bound to
// another value or, in injective mode, img is another value's image.
func (s *searcher) bind(v, img instance.Value) bool {
	if prev, ok := s.bindings.Get(s.one(v)); ok {
		return instance.SameValue(prev, img)
	}
	if s.injective {
		if _, taken := s.used.Get(s.one(img)); taken {
			return false
		}
		s.used.Put(s.one(img), true)
	}
	s.bindings.Put(s.one(v), img)
	s.trail = append(s.trail, v)
	return true
}

// unifyTuple tries to map tuple t onto cand under the current
// bindings, extending them; it returns any child-set obligations
// created by newly bound SetIDs.
func (s *searcher) unifyTuple(t, cand *instance.Tuple) ([]obligation, bool) {
	var newObs []obligation
	st := t.Set
	for _, label := range st.Atoms {
		if !s.unifySlot(t.Get(label), cand.Get(label), &newObs) {
			return nil, false
		}
	}
	for _, label := range st.SetFields {
		if !s.unifySlot(t.Get(label), cand.Get(label), &newObs) {
			return nil, false
		}
	}
	return newObs, true
}

func (s *searcher) unifySlot(v, cv instance.Value, newObs *[]obligation) bool {
	if v == nil && cv == nil {
		return true
	}
	if v == nil || cv == nil {
		return false
	}
	switch val := v.(type) {
	case instance.Const:
		// h is the identity on constants.
		if !instance.SameValue(val, cv) {
			return false
		}
	case *instance.Null:
		// Nulls map to constants or nulls, consistently. Under an
		// isomorphism a null must map to a null: a null→constant
		// image has no constant-preserving inverse.
		if instance.IsSetRef(cv) {
			return false
		}
		if s.injective && !instance.IsNull(cv) {
			return false
		}
		if !s.bind(val, cv) {
			return false
		}
	case *instance.SetRef:
		// SetIDs map to SetIDs of the same set type.
		cref, ok := cv.(*instance.SetRef)
		if !ok {
			return false
		}
		_, already := s.bindings.Get(s.one(val))
		if !s.bind(val, cref) {
			return false
		}
		if !already {
			// First time this SetID is bound: its members must map
			// into the destination occurrence.
			srcOcc := s.a.Set(val)
			dstOcc := s.b.Set(cref)
			if srcOcc != nil && srcOcc.Len() > 0 {
				if dstOcc == nil {
					return false
				}
				ob, ok := s.newObligation(srcOcc, dstOcc)
				if !ok {
					return false
				}
				*newObs = append(*newObs, ob)
			}
		}
	}
	return true
}
