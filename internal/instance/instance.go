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
	// chases, prefetch workers) is race-free; concurrent mutation via
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
// type's declared field order. Unset slots encode as empty.
func (t *Tuple) Key() string {
	if k := t.key.Load(); k != nil {
		return *k
	}
	b := t.appendKeyBytes(make([]byte, 0, 16*len(t.vals)))
	k := string(b)
	t.key.Store(&k)
	return k
}

// appendKeyBytes composes the canonical tuple encoding into b without
// touching the memoized key. The slot array follows the declared field
// order, so one pass over it reproduces Key's encoding exactly.
func (t *Tuple) appendKeyBytes(b []byte) []byte {
	for _, v := range t.vals {
		if v != nil {
			b = v.appendKey(b)
		}
		b = append(b, '\x04')
	}
	return b
}

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
// tuples it contains. Tuples are deduplicated by canonical key
// (unordered set semantics).
type SetVal struct {
	Type   *nr.SetType
	ID     *SetRef
	tuples map[string]*Tuple
	list   []*Tuple // insertion order, for stable iteration
}

func newSetVal(st *nr.SetType, id *SetRef) *SetVal {
	return &SetVal{Type: st, ID: id, tuples: make(map[string]*Tuple)}
}

// Len returns the number of tuples in the set.
func (s *SetVal) Len() int { return len(s.tuples) }

// Insert adds the tuple, returning false if an equal tuple already
// exists.
func (s *SetVal) Insert(t *Tuple) bool {
	if t.Set != s.Type {
		panic(fmt.Sprintf("instance: inserting %s tuple into %s set", t.Set, s.Type))
	}
	k := t.Key()
	if _, ok := s.tuples[k]; ok {
		return false
	}
	s.tuples[k] = t
	s.list = append(s.list, t)
	return true
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
func (s *SetVal) Contains(t *Tuple) bool {
	_, ok := s.tuples[t.Key()]
	return ok
}

// Instance is an instance of an NR schema: a collection of set
// occurrences keyed by SetID. Every top-level set type has exactly one
// occurrence whose SetID is the set's path; nested set occurrences are
// created on demand as SetIDs are minted (by the chase or by builders).
type Instance struct {
	Schema *nr.Schema
	Cat    *nr.Catalog
	sets   map[string]*SetVal // SetRef key → occurrence
	order  []string           // insertion order of SetRef keys
	tops   map[*nr.SetType]*SetVal

	// arena block-allocates tuple headers and slot arrays owned by this
	// instance (see compact.go); keyBuf is the reusable scratch the
	// clone-on-insert path composes tuple keys into. Neither is safe
	// for concurrent mutation — like Insert itself, the builder-side
	// API is single-writer.
	arena   arena
	keyBuf  []byte
	scratch map[*nr.SetType]*Tuple // ScratchTuple cache, one per set type

	// intern is the per-instance value intern table (see intern.go).
	// Unlike the arena it is guarded by a mutex, so interning stays
	// race-free even if two goroutines call Intern* at once.
	intern internTable
}

// New creates an empty instance of the schema, with the top-level set
// occurrences pre-created.
func New(cat *nr.Catalog) *Instance {
	inst := &Instance{Schema: cat.Schema, Cat: cat,
		sets: make(map[string]*SetVal), tops: make(map[*nr.SetType]*SetVal)}
	for _, st := range cat.TopLevel() {
		inst.tops[st] = inst.EnsureSet(st, TopID(st))
	}
	return inst
}

// topIDs caches the SetID of each top-level set type. A SetRef is
// immutable, so one shared ref per set type is safe across all
// instances — and its canonical key is rendered once, not once per
// instance construction.
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
	k := id.Key()
	if s, ok := in.sets[k]; ok {
		return s
	}
	s := newSetVal(st, id)
	in.sets[k] = s
	in.order = append(in.order, k)
	return s
}

// Set returns the occurrence with the given SetID, or nil.
func (in *Instance) Set(id *SetRef) *SetVal { return in.sets[id.Key()] }

// Top returns the unique occurrence of a top-level set type. The
// occurrences of the instance's own catalog are cached at construction
// so the lookup skips re-minting the SetID; the cache is never written
// afterwards, keeping concurrent read-only use (prefetch workers and
// server sessions sharing one source instance) race-free.
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
	for _, k := range in.order {
		if s := in.sets[k]; s.Type == st {
			out = append(out, s)
		}
	}
	return out
}

// EachOccurrence invokes fn for every occurrence of the given set
// type, in creation order. Unlike Occurrences it allocates nothing.
func (in *Instance) EachOccurrence(st *nr.SetType, fn func(*SetVal)) {
	for _, k := range in.order {
		if s := in.sets[k]; s.Type == st {
			fn(s)
		}
	}
}

// AllSets returns every occurrence in creation order.
func (in *Instance) AllSets() []*SetVal {
	out := make([]*SetVal, 0, len(in.order))
	for _, k := range in.order {
		out = append(out, in.sets[k])
	}
	return out
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

// InsertUnique adds a copy of t to the occurrence with SetID id,
// creating the occurrence if needed, and reports whether the tuple was
// new. Unlike Insert it does not take ownership of t: the caller keeps
// a reusable scratch tuple, and only on a dedup miss is its content
// copied into an arena-backed tuple (with the canonical key, already
// composed for the dedup probe, memoized on the copy). Duplicate
// inserts allocate nothing. Builder-side only: not safe for concurrent
// use.
func (in *Instance) InsertUnique(st *nr.SetType, id *SetRef, t *Tuple) bool {
	return in.insertUnique(in.EnsureSet(st, id), t)
}

// InsertTopUnique is InsertUnique on the unique occurrence of a
// top-level set.
func (in *Instance) InsertTopUnique(st *nr.SetType, t *Tuple) bool {
	return in.insertUnique(in.Top(st), t)
}

func (in *Instance) insertUnique(s *SetVal, t *Tuple) bool {
	if t.Set != s.Type {
		panic(fmt.Sprintf("instance: inserting %s tuple into %s set", t.Set, s.Type))
	}
	in.keyBuf = t.appendKeyBytes(in.keyBuf[:0])
	if _, ok := s.tuples[string(in.keyBuf)]; ok {
		return false
	}
	c := in.NewTuple(t.Set)
	copy(c.vals, t.vals)
	k := string(in.keyBuf)
	c.key.Store(&k)
	s.tuples[k] = c
	s.list = append(s.list, c)
	return true
}

// TupleCount returns the total number of tuples across all sets.
func (in *Instance) TupleCount() int {
	n := 0
	for _, s := range in.sets {
		n += s.Len()
	}
	return n
}

// SizeBytes estimates the byte size of the instance as the sum of the
// display lengths of all atomic values (a proxy for the "size of I"
// figures the paper reports).
func (in *Instance) SizeBytes() int {
	n := 0
	for _, s := range in.sets {
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
	c := &Instance{Schema: in.Schema, Cat: in.Cat,
		sets: make(map[string]*SetVal, len(in.sets)), tops: make(map[*nr.SetType]*SetVal)}
	for _, k := range in.order {
		s := in.sets[k]
		ns := newSetVal(s.Type, s.ID)
		for _, t := range s.Tuples() {
			ns.Insert(t.Clone())
		}
		c.sets[k] = ns
		c.order = append(c.order, k)
	}
	for st, s := range in.tops {
		if ns, ok := c.sets[s.ID.Key()]; ok {
			c.tops[st] = ns
		}
	}
	return c
}

// Equal reports whether two instances contain exactly the same sets
// and tuples (by canonical keys). Empty set occurrences are ignored:
// they are indistinguishable in the data.
func (in *Instance) Equal(other *Instance) bool {
	return in.nonEmptyEqual(other)
}

func (in *Instance) nonEmptyEqual(other *Instance) bool {
	a := in.nonEmptyKeys()
	b := other.nonEmptyKeys()
	if len(a) != len(b) {
		return false
	}
	for k, keys := range a {
		okeys, ok := b[k]
		if !ok || len(keys) != len(okeys) {
			return false
		}
		for tk := range keys {
			if !okeys[tk] {
				return false
			}
		}
	}
	return true
}

func (in *Instance) nonEmptyKeys() map[string]map[string]bool {
	out := make(map[string]map[string]bool)
	for k, s := range in.sets {
		if s.Len() == 0 {
			continue
		}
		m := make(map[string]bool, s.Len())
		for tk := range s.tuples {
			m[tk] = true
		}
		out[k] = m
	}
	return out
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
	referenced := in.referencedIDs()
	for _, k := range in.order {
		s := in.sets[k]
		if s.Type.Parent == nil || referenced[k] {
			continue
		}
		fmt.Fprintf(&b, "[unreferenced] %s:\n", s.ID)
		in.writeSet(&b, s, "  ")
	}
	return b.String()
}

func (in *Instance) referencedIDs() map[string]bool {
	out := make(map[string]bool)
	for _, s := range in.sets {
		for _, t := range s.list {
			for _, v := range t.vals[len(s.Type.Atoms):] {
				if ref, ok := v.(*SetRef); ok {
					out[ref.Key()] = true
				}
			}
		}
	}
	return out
}

func (in *Instance) writeSet(b *strings.Builder, s *SetVal, indent string) {
	tuples := s.Tuples()
	sort.Slice(tuples, func(i, j int) bool { return tuples[i].Key() < tuples[j].Key() })
	for _, t := range tuples {
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
			if child := in.sets[ref.Key()]; child != nil {
				in.writeSet(b, child, indent+"    ")
			}
		}
	}
}
