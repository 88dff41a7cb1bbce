package instance

import (
	"slices"
	"sync"
)

// This file holds the three ways the engines group by value vectors:
// a hash index of a set's tuples over some slots (the chase's
// generators), an exact distinct counter (the index store's statistics
// and the uniqueness verdicts behind refuted probes), and a map from
// value vectors to anything (homomorphism bindings, constraint checks,
// Muse-G's data-implied groups, compact rendering's short names). All
// three key a value vector by its content hash. The counter and the map
// confirm every hash hit with SameValue; an index leaves collisions in
// its buckets for the SameValue checks that its callers make on every
// indexed slot.

// hashVector hashes the value vectors of Index, the counter and VecMap.
// Tests replace it to force every hash equal.
var hashVector = HashValues

// VecMap maps value vectors to values of type T by content: two keys
// are the same key when they have the same length and are pairwise
// SameValue, so a nil entry equals only nil. Every hash hit is
// confirmed with SameValue, and Put retains a copy of a new key. Most
// tables hold a few entries (a homomorphism's bindings, an example's
// key projections), so the first smallVec live inline and are found by
// a scan; a larger table moves them into a hash-keyed map. The zero
// VecMap is empty; it is not safe for concurrent mutation.
type VecMap[T any] struct {
	n     int // inline entries in use; 0 once big holds every entry
	small [smallVec]vecEntry[T]
	big   hashMap[*vecEntry[T]]
}

const smallVec = 8

type vecEntry[T any] struct {
	h   uint64
	key []Value
	val T
}

// entry returns the entry under key, whose hash is h, and its inline
// position, or -1 when big holds it; nil when there is none.
func (m *VecMap[T]) entry(h uint64, key []Value) (*vecEntry[T], int) {
	for i := range m.n {
		if m.small[i].h == h && sameValues(m.small[i].key, key) {
			return &m.small[i], i
		}
	}
	e, _ := m.big.get(h, func(e *vecEntry[T]) bool { return sameValues(e.key, key) })
	return e, -1
}

// Get returns the value under key and whether there is one.
func (m *VecMap[T]) Get(key []Value) (T, bool) {
	if e, _ := m.entry(hashVector(key), key); e != nil {
		return e.val, true
	}
	var zero T
	return zero, false
}

// Put sets the value under key.
func (m *VecMap[T]) Put(key []Value, v T) {
	h := hashVector(key)
	if e, _ := m.entry(h, key); e != nil {
		e.val = v
		return
	}
	if m.big.first == nil && m.n < smallVec {
		m.small[m.n] = vecEntry[T]{h, slices.Clone(key), v}
		m.n++
		return
	}
	for ; m.n > 0; m.n-- {
		moved := m.small[m.n-1]
		m.big.put(moved.h, &moved)
		m.small[m.n-1] = vecEntry[T]{}
	}
	m.big.put(h, &vecEntry[T]{h, slices.Clone(key), v})
}

// Delete removes key and its value, if present.
func (m *VecMap[T]) Delete(key []Value) {
	h := hashVector(key)
	switch e, i := m.entry(h, key); {
	case i >= 0:
		m.n--
		m.small[i], m.small[m.n] = m.small[m.n], vecEntry[T]{}
	case e != nil:
		m.big.remove(h, func(x *vecEntry[T]) bool { return x == e })
	}
}

// Index is a hash index of a set's tuples over some of their slots: a
// bucket per content hash of the slot values, holding its tuples in set
// order. Tuples that leave an indexed slot unset are omitted, since no
// probe can equal them. An Index is immutable once built and safe for
// concurrent lookups.
type Index struct {
	m map[uint64][]*Tuple
	n int
}

// NewIndex builds the hash index of tuples over slots.
func NewIndex(tuples []*Tuple, slots []int) *Index {
	x := &Index{m: make(map[uint64][]*Tuple)}
	vals := make([]Value, len(slots))
next:
	for _, t := range tuples {
		for k, sl := range slots {
			if vals[k] = t.vals[sl]; vals[k] == nil {
				continue next
			}
		}
		h := hashVector(vals)
		x.m[h] = append(x.m[h], t)
		x.n++
	}
	return x
}

// Lookup returns the bucket of vals, one value per indexed slot: every
// indexed tuple whose slot values are SameValue to vals, in set order,
// and possibly tuples whose values only collide in hash, which the
// caller must reject by SameValue. A vector with an unset value has no
// bucket. The slice is shared and read-only.
func (x *Index) Lookup(vals []Value) []*Tuple {
	for _, v := range vals {
		if v == nil {
			return nil
		}
	}
	return x.m[hashVector(vals)]
}

// Len returns the number of tuples indexed: those that set every
// indexed slot.
func (x *Index) Len() int { return x.n }

// Distinct counts, in one pass over tuples, the distinct value vectors
// they hold on slots, and the tuples that leave one of slots unset
// (they hold no vector). A hash hit counts as a repeat only when
// SameValue confirms every slot, so the counts are exact. A call
// allocates nothing once the pool holds a counter large enough.
func Distinct(tuples []*Tuple, slots []int) (distinct, unset int) {
	c := counters.Get().(*counter)
	distinct, unset = c.count(tuples, slots, false)
	c.release()
	return distinct, unset
}

// Unique reports whether every tuple sets each of slots and no two
// tuples agree on all of them. It stops at the first tuple that leaves
// a slot unset or repeats an earlier tuple's vector.
func Unique(tuples []*Tuple, slots []int) bool {
	c := counters.Get().(*counter)
	distinct, unset := c.count(tuples, slots, true)
	c.release()
	return unset == 0 && distinct == len(tuples)
}

// counters lends a counter to each pass of Distinct and Unique, so
// passes that run at once count apart and a warm pass allocates
// nothing.
var counters = sync.Pool{New: func() any { return new(counter) }}

// counter is an open-addressing hash table of tuple numbers, cleared
// and reused by every pass it is lent to.
type counter struct {
	// slots holds, in each occupied slot, the tuple number + 1 in the
	// high half and the low half of its vector hash, so a probe reads
	// one word; 0 is empty.
	slots []uint64
	key   []Value // the current tuple's vector
}

// count counts the distinct vectors tuples hold on slots and the tuples
// that leave a slot unset; with stop set it returns at the first tuple
// that leaves a slot unset or repeats a vector.
func (c *counter) count(tuples []*Tuple, slots []int, stop bool) (distinct, unset int) {
	// A load of at most one half.
	n := 8
	for n < 2*len(tuples) {
		n <<= 1
	}
	if cap(c.slots) < n {
		c.slots = make([]uint64, n)
	}
	c.slots = c.slots[:n]
	clear(c.slots)
	mask := uint64(n - 1)
next:
	for i, t := range tuples {
		c.key = c.key[:0]
		for _, sl := range slots {
			if t.vals[sl] == nil {
				unset++
				if stop {
					return distinct, unset
				}
				continue next
			}
			c.key = append(c.key, t.vals[sl])
		}
		h := hashVector(c.key)
		for j := h & mask; ; j = (j + 1) & mask {
			e := c.slots[j]
			if e == 0 {
				c.slots[j] = uint64(i+1)<<32 | h&0xffffffff
				distinct++
				break
			}
			if uint32(e) == uint32(h) && sameOn(tuples[e>>32-1], t, slots) {
				if stop {
					return distinct, unset
				}
				break
			}
		}
	}
	return distinct, unset
}

// release returns the counter to the pool, holding no value.
func (c *counter) release() {
	clear(c.key[:cap(c.key)])
	counters.Put(c)
}

// sameOn reports whether tuples a and b agree on every slot.
func sameOn(a, b *Tuple, slots []int) bool {
	for _, sl := range slots {
		if !SameValue(a.vals[sl], b.vals[sl]) {
			return false
		}
	}
	return true
}
