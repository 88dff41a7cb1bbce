package instance

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"muse/internal/nr"
)

// Tuple is a value of a set's element record type: a mapping from the
// set type's atom labels (and set-field labels) to values. Atom slots
// hold Const or Null values; set-field slots hold SetRef values.
//
// Storage is compact: values live in a slot-indexed array following
// the set type's layout (atoms in declaration order, then set fields —
// see nr.SetType.Slot), not in a per-tuple map. Tuples created through
// Instance.NewTuple carve both the header and the value array out of
// the instance's arena, so building a large instance allocates value
// blocks rather than one object graph per tuple.
type Tuple struct {
	Set  *nr.SetType
	vals []Value

	// key caches the canonical encoding; Put invalidates it. The cache
	// is atomic so read-only sharing across goroutines (concurrent
	// chases, server sessions) is race-free; concurrent mutation via
	// Put is not supported.
	key atomic.Pointer[string]
}

// NewTuple creates an empty tuple of the given set type on the heap.
// Tuples destined for a particular instance should prefer
// Instance.NewTuple (arena-backed); NewTuple remains for scratch
// tuples and instance-independent construction.
func NewTuple(st *nr.SetType) *Tuple {
	return &Tuple{Set: st, vals: make([]Value, st.NumSlots())}
}

// Get returns the value at label, or nil if unset (or unknown).
func (t *Tuple) Get(label string) Value {
	if i := t.Set.Slot(label); i >= 0 {
		return t.vals[i]
	}
	return nil
}

// ValAt returns the value at slot position i (see nr.SetType.Slot for
// the layout: atoms in declaration order, then set fields). Hot loops
// that resolved slot positions once use it to skip the label lookup.
func (t *Tuple) ValAt(i int) Value { return t.vals[i] }

// NumSlots returns the number of value slots (len(Atoms) +
// len(SetFields) of the set type).
func (t *Tuple) NumSlots() int { return len(t.vals) }

// Put assigns the value at label and returns the tuple for chaining.
// It panics when label names neither an atom nor a set field of the
// tuple's set type (all loaders validate labels before putting).
func (t *Tuple) Put(label string, v Value) *Tuple {
	i := t.Set.Slot(label)
	if i < 0 {
		panic(fmt.Sprintf("instance: set %s has no field %q", t.Set, label))
	}
	t.vals[i] = v
	t.key.Store(nil)
	return t
}

// PutSlot assigns the value at a slot position (see nr.SetType.Slot
// for the layout). Hot loops that resolved slot positions once (the
// chase's target plan) use it to skip the per-Put label lookup.
func (t *Tuple) PutSlot(i int, v Value) {
	t.vals[i] = v
	t.key.Store(nil)
}

// Clear unsets every slot, so a scratch tuple can be reused across
// InsertUnique calls whose writers fill only some slots.
func (t *Tuple) Clear() *Tuple {
	for i := range t.vals {
		t.vals[i] = nil
	}
	t.key.Store(nil)
	return t
}

// Key returns the canonical encoding of the tuple: values in the set
// type's declared field order. Unset slots encode as empty. The key is
// rendered on first call and memoized; identity checks never need it.
func (t *Tuple) Key() string {
	if k := t.key.Load(); k != nil {
		return *k
	}
	k := t.renderKey()
	t.key.Store(&k)
	return k
}

// renderKey returns the tuple's key without memoizing it (the memoized
// one if present). Renderers that sort a whole set use it, so an
// instance does not keep a key per tuple after being printed.
func (t *Tuple) renderKey() string {
	if k := t.key.Load(); k != nil {
		return *k
	}
	b := make([]byte, 0, 16*len(t.vals))
	for _, v := range t.vals {
		if v != nil {
			b = v.appendKey(b)
		}
		b = append(b, '\x04')
	}
	return string(b)
}

// hash returns the tuple's content hash over its slots in order.
func (t *Tuple) hash() uint64 { return HashValues(t.vals) }

// sameTuple reports slot-wise SameValue equality, which agrees with Key
// equality.
func sameTuple(a, b *Tuple) bool { return a == b || sameValues(a.vals, b.vals) }

// Clone returns a copy of the tuple sharing values (values are
// immutable).
func (t *Tuple) Clone() *Tuple {
	c := NewTuple(t.Set)
	copy(c.vals, t.vals)
	return c
}

// String renders the tuple as (v1, v2, ...) in field order.
func (t *Tuple) String() string {
	var parts []string
	for _, a := range t.Set.Atoms {
		if v := t.Get(a); v != nil {
			parts = append(parts, v.String())
		} else {
			parts = append(parts, "_")
		}
	}
	for _, f := range t.Set.SetFields {
		if v := t.Get(f); v != nil {
			parts = append(parts, f+":"+v.String())
		} else {
			parts = append(parts, f+":_")
		}
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// SetVal is one nested set occurrence: a SetID together with the
// tuples it contains. Tuples are deduplicated by content (unordered set
// semantics): a small set scans the hashes of its tuples, and past
// smallSet tuples it moves them into a hash-keyed map.
type SetVal struct {
	Type *nr.SetType
	ID   *SetRef
	list []*Tuple // insertion order, for stable iteration
	// hashes[i] is list[i]'s content hash while the set is small; big
	// replaces it once the set outgrows smallSet.
	hashes []uint64
	big    *hashMap[*Tuple]
	// first and firstHash back a singleton's list and hashes.
	first     [1]*Tuple
	firstHash [1]uint64
}

// smallSet is the size up to which a set finds duplicates by scanning
// its hashes rather than through a map. Most nested occurrences hold a
// tuple or two, and a map per occurrence would dominate their memory.
const smallSet = 8

// Len returns the number of tuples in the set.
func (s *SetVal) Len() int { return len(s.list) }

// Insert adds the tuple, returning false if an equal tuple already
// exists.
func (s *SetVal) Insert(t *Tuple) bool {
	s.checkType(t)
	return s.insert(t.hash(), t)
}

// insert is Insert with t's hash given; tests pass it explicitly to
// force distinct tuples under one hash.
func (s *SetVal) insert(h uint64, t *Tuple) bool {
	if s.has(h, t) {
		return false
	}
	s.add(h, t)
	return true
}

func (s *SetVal) checkType(t *Tuple) {
	if t.Set != s.Type {
		panic(fmt.Sprintf("instance: inserting %s tuple into %s set", t.Set, s.Type))
	}
}

// has reports whether a tuple equal to t is stored under hash h.
func (s *SetVal) has(h uint64, t *Tuple) bool {
	if s.big == nil {
		for i, x := range s.hashes {
			if x == h && sameTuple(s.list[i], t) {
				return true
			}
		}
		return false
	}
	_, ok := s.big.get(h, func(u *Tuple) bool { return sameTuple(u, t) })
	return ok
}

// add appends t, which has hash h and no equal in the set.
func (s *SetVal) add(h uint64, t *Tuple) {
	if len(s.list) == 0 {
		s.first[0], s.firstHash[0] = t, h
		s.list, s.hashes = s.first[:], s.firstHash[:]
		return
	}
	s.list = append(s.list, t)
	if s.big != nil {
		s.big.put(h, t)
		return
	}
	s.hashes = append(s.hashes, h)
	if len(s.hashes) > smallSet {
		s.big = new(hashMap[*Tuple])
		for i, x := range s.hashes {
			s.big.put(x, s.list[i])
		}
		s.hashes = nil
	}
}

// Each invokes fn for every tuple in insertion order, stopping early
// when fn returns false. Unlike Tuples it allocates nothing; hot loops
// (the chase evaluator, index builders) should prefer it.
func (s *SetVal) Each(fn func(*Tuple) bool) {
	for _, t := range s.list {
		if !fn(t) {
			return
		}
	}
}

// Tuples returns a fresh slice of the tuples in insertion order (safe
// for callers to reorder).
func (s *SetVal) Tuples() []*Tuple {
	return append([]*Tuple(nil), s.list...)
}

// View returns the set's tuples in insertion order without copying.
// The slice is shared with the set: callers must not modify it, and it
// is only valid while the set is not mutated. Scan-heavy read-only
// paths (the query evaluator) should prefer it over Tuples.
func (s *SetVal) View() []*Tuple { return s.list }

// Contains reports whether an equal tuple is present.
func (s *SetVal) Contains(t *Tuple) bool { return s.has(t.hash(), t) }

// Instance is an instance of an NR schema: a collection of set
// occurrences keyed by SetID. Every top-level set type has exactly one
// occurrence whose SetID is the set's path; nested set occurrences are
// created on demand as SetIDs are minted (by the chase or by builders).
type Instance struct {
	Schema *nr.Schema
	Cat    *nr.Catalog
	sets   hashMap[*SetVal] // SetID content hash → occurrence: the SetID intern table
	order  []*SetVal        // occurrences in creation order
	tops   map[*nr.SetType]*SetVal

	// arena block-allocates tuple headers and slot arrays owned by this
	// instance (see compact.go). It is not safe for concurrent mutation
	// — like Insert itself, the builder-side API is single-writer.
	arena   arena
	scratch map[*nr.SetType]*Tuple // ScratchTuple cache, one per set type

	// intern is the per-instance value intern table (see intern.go).
	// Unlike the arena it is guarded by a mutex, so interning stays
	// race-free even if two goroutines call Intern* at once.
	intern internTable
}

// New creates an empty instance of the schema, with the top-level set
// occurrences pre-created.
func New(cat *nr.Catalog) *Instance {
	inst := &Instance{Schema: cat.Schema, Cat: cat, tops: make(map[*nr.SetType]*SetVal)}
	for _, st := range cat.TopLevel() {
		inst.tops[st] = inst.EnsureSet(st, TopID(st))
	}
	return inst
}

// topIDs caches the SetID of each top-level set type. A SetRef is
// immutable, so one shared ref per set type is safe across all
// instances — and its hash is computed once, not once per instance
// construction.
var topIDs sync.Map // *nr.SetType → *SetRef

// TopID returns the SetID of a top-level set type.
func TopID(st *nr.SetType) *SetRef {
	if r, ok := topIDs.Load(st); ok {
		return r.(*SetRef)
	}
	r, _ := topIDs.LoadOrStore(st, NewSetRef(st.Schema.Name+"."+st.Path.String()))
	return r.(*SetRef)
}

// EnsureSet returns the occurrence with the given SetID, creating an
// empty one if absent.
func (in *Instance) EnsureSet(st *nr.SetType, id *SetRef) *SetVal {
	return in.ensureSet(id.hash(), st, id)
}

// ensureSet is EnsureSet with id's hash given; tests pass it explicitly
// to force distinct occurrences under one hash.
func (in *Instance) ensureSet(h uint64, st *nr.SetType, id *SetRef) *SetVal {
	s, hit := in.sets.intern(h, func(s *SetVal) bool { return SameValue(s.ID, id) },
		func() *SetVal { return &SetVal{Type: st, ID: id} })
	if !hit {
		in.order = append(in.order, s)
	}
	return s
}

// InternSet returns the occurrence whose SetID is fn(a), in one lookup:
// a miss mints the SetID over a's retained arguments, with an empty
// occurrence of st last in creation order. Not safe for concurrent use.
func (in *Instance) InternSet(st *nr.SetType, fn string, a *TermArgs) *SetVal {
	return in.internSet(termHash(kindSetRef, fn, a.hash), st, fn, a)
}

// internSet is InternSet with the SetID's hash given; tests pass it
// explicitly to force distinct occurrences under one hash.
func (in *Instance) internSet(h uint64, st *nr.SetType, fn string, a *TermArgs) *SetVal {
	s, hit := in.sets.intern(h, func(s *SetVal) bool {
		return s.ID.Fn == fn && sameValues(s.ID.Args, a.vals)
	}, func() *SetVal {
		id := &SetRef{Fn: fn, Args: a.retain()}
		id.h.Store(h)
		return &SetVal{Type: st, ID: id}
	})
	if !hit {
		in.order = append(in.order, s)
	}
	return s
}

// Set returns the occurrence with the given SetID, or nil. Any SetRef
// equal to the occurrence's ID finds it, interned or not, from this
// instance or another.
func (in *Instance) Set(id *SetRef) *SetVal { return in.set(id.hash(), id) }

func (in *Instance) set(h uint64, id *SetRef) *SetVal {
	s, _ := in.sets.get(h, func(s *SetVal) bool { return SameValue(s.ID, id) })
	return s
}

// Top returns the unique occurrence of a top-level set type. The
// occurrences of the instance's own catalog are cached at construction
// so the lookup skips re-minting the SetID; the cache is never written
// afterwards, keeping concurrent read-only use (server sessions
// sharing one source instance) race-free.
func (in *Instance) Top(st *nr.SetType) *SetVal {
	if s, ok := in.tops[st]; ok {
		return s
	}
	return in.EnsureSet(st, TopID(st))
}

// Occurrences returns all occurrences of the given set type, in
// creation order.
func (in *Instance) Occurrences(st *nr.SetType) []*SetVal {
	var out []*SetVal
	for _, s := range in.order {
		if s.Type == st {
			out = append(out, s)
		}
	}
	return out
}

// EachOccurrence invokes fn for every occurrence of the given set
// type, in creation order. Unlike Occurrences it allocates nothing.
func (in *Instance) EachOccurrence(st *nr.SetType, fn func(*SetVal)) {
	for _, s := range in.order {
		if s.Type == st {
			fn(s)
		}
	}
}

// AllSets returns every occurrence in creation order.
func (in *Instance) AllSets() []*SetVal {
	return append([]*SetVal(nil), in.order...)
}

// AllTuples returns every tuple of the given set type across all of
// its occurrences.
func (in *Instance) AllTuples(st *nr.SetType) []*Tuple {
	var out []*Tuple
	for _, s := range in.Occurrences(st) {
		out = append(out, s.Tuples()...)
	}
	return out
}

// Insert adds a tuple to the occurrence with SetID id, creating the
// occurrence if needed. It reports whether the tuple was new.
func (in *Instance) Insert(st *nr.SetType, id *SetRef, t *Tuple) bool {
	return in.EnsureSet(st, id).Insert(t)
}

// InsertTop adds a tuple to the unique occurrence of a top-level set.
func (in *Instance) InsertTop(st *nr.SetType, t *Tuple) bool {
	return in.Top(st).Insert(t)
}

// NewTuple allocates an empty tuple of st out of the instance's arena.
// The tuple's memory lives as long as the instance; use it for tuples
// that will be inserted here (Insert) or retained alongside it.
// Builder-side only: not safe for concurrent use.
func (in *Instance) NewTuple(st *nr.SetType) *Tuple {
	t := in.arena.newTuple()
	t.Set = st
	t.vals = in.arena.newVals(st.NumSlots())
	return t
}

// InsertUnique adds a copy of t to s, an occurrence of this instance
// (from EnsureSet, InternSet or Top), and reports whether the tuple was
// new. Unlike Insert it does not take ownership of t: the caller keeps
// a reusable scratch tuple, and only on a dedup miss is its content
// copied into an arena-backed tuple. Duplicate inserts allocate
// nothing. Builder-side only: not safe for concurrent use.
func (in *Instance) InsertUnique(s *SetVal, t *Tuple) bool {
	s.checkType(t)
	return in.insertCopy(s, t.hash(), t)
}

// insertCopy is the dedup-then-copy step of InsertUnique with t's hash
// given; tests pass it explicitly to force distinct tuples under one
// hash.
func (in *Instance) insertCopy(s *SetVal, h uint64, t *Tuple) bool {
	if s.has(h, t) {
		return false
	}
	c := in.NewTuple(t.Set)
	copy(c.vals, t.vals)
	s.add(h, c)
	return true
}

// TupleCount returns the total number of tuples across all sets.
func (in *Instance) TupleCount() int {
	n := 0
	for _, s := range in.order {
		n += s.Len()
	}
	return n
}

// SizeBytes estimates the byte size of the instance as the sum of the
// display lengths of all atomic values (a proxy for the "size of I"
// figures the paper reports).
func (in *Instance) SizeBytes() int {
	n := 0
	for _, s := range in.order {
		for _, t := range s.list {
			for _, v := range t.vals[:len(t.Set.Atoms)] {
				if v != nil {
					n += len(v.String()) + 1
				}
			}
		}
	}
	return n
}

// Clone returns a deep copy of the instance (tuples copied, values
// shared).
func (in *Instance) Clone() *Instance {
	c := &Instance{Schema: in.Schema, Cat: in.Cat, tops: make(map[*nr.SetType]*SetVal)}
	for _, s := range in.order {
		ns := c.EnsureSet(s.Type, s.ID)
		for _, t := range s.list {
			ns.Insert(t.Clone())
		}
	}
	for st, s := range in.tops {
		if ns := c.Set(s.ID); ns != nil {
			c.tops[st] = ns
		}
	}
	return c
}

// Equal reports whether two instances contain exactly the same sets
// and tuples: occurrences matched by SetID, tuples by slot values (the
// same verdict as comparing canonical keys). Empty set occurrences are
// ignored: they are indistinguishable in the data.
func (in *Instance) Equal(other *Instance) bool {
	n := 0
	for _, s := range in.order {
		if s.Len() == 0 {
			continue
		}
		n++
		o := other.Set(s.ID)
		if o == nil || o.Len() != s.Len() {
			return false
		}
		for _, t := range s.list {
			if !o.Contains(t) {
				return false
			}
		}
	}
	for _, s := range other.order {
		if s.Len() > 0 {
			n--
		}
	}
	return n == 0
}

// String renders the instance nested, in the style of Fig. 2: each
// top-level set with its tuples, nested sets indented under the tuple
// that references them.
func (in *Instance) String() string {
	var b strings.Builder
	for _, st := range in.Cat.TopLevel() {
		s := in.Set(TopID(st))
		if s == nil {
			continue
		}
		fmt.Fprintf(&b, "%s:\n", st.Path)
		in.writeSet(&b, s, "  ")
	}
	// Orphan occurrences (nested sets never referenced) are rendered
	// at the end to keep the output total.
	referenced := in.referencedSets()
	for _, s := range in.order {
		if s.Type.Parent == nil || referenced[s] {
			continue
		}
		fmt.Fprintf(&b, "[unreferenced] %s:\n", s.ID)
		in.writeSet(&b, s, "  ")
	}
	return b.String()
}

func (in *Instance) referencedSets() map[*SetVal]bool {
	out := make(map[*SetVal]bool)
	for _, s := range in.order {
		for _, t := range s.list {
			for _, v := range t.vals[len(s.Type.Atoms):] {
				if ref, ok := v.(*SetRef); ok {
					if child := in.Set(ref); child != nil {
						out[child] = true
					}
				}
			}
		}
	}
	return out
}

// sortedTuples returns the set's tuples ordered by canonical key. Each
// key is rendered once for the sort and not memoized.
func sortedTuples(s *SetVal) []*Tuple {
	type keyed struct {
		key string
		t   *Tuple
	}
	ks := make([]keyed, len(s.list))
	for i, t := range s.list {
		ks[i] = keyed{t.renderKey(), t}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
	out := make([]*Tuple, len(ks))
	for i := range ks {
		out[i] = ks[i].t
	}
	return out
}

func (in *Instance) writeSet(b *strings.Builder, s *SetVal, indent string) {
	for _, t := range sortedTuples(s) {
		var parts []string
		for _, v := range t.vals[:len(t.Set.Atoms)] {
			if v != nil {
				parts = append(parts, v.String())
			} else {
				parts = append(parts, "_")
			}
		}
		fmt.Fprintf(b, "%s(%s)\n", indent, strings.Join(parts, ", "))
		for i, f := range t.Set.SetFields {
			ref, ok := t.vals[len(t.Set.Atoms)+i].(*SetRef)
			if !ok {
				continue
			}
			fmt.Fprintf(b, "%s%s = %s:\n", indent+"  ", f, ref)
			if child := in.Set(ref); child != nil {
				in.writeSet(b, child, indent+"    ")
			}
		}
	}
}
