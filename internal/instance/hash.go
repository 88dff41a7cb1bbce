package instance

import (
	"hash/maphash"
	"math/bits"
	"slices"
)

// This file implements content hashing, which decides the identity of
// values, tuples and set occurrences. Every table that deduplicates —
// the intern table, the occurrence table, each set's tuples — is keyed
// by a 64-bit content hash, and entries that share a hash are told
// apart by structural equality (SameValue on each argument or slot),
// never by the hash alone. Canonical key strings are only rendered when
// a caller asks for one.

// seed keys every content hash of the process. Hashes are never
// persisted or compared across processes.
var seed = maphash.MakeSeed()

// Kind tags mixed into term hashes, so a Null and a SetRef over the
// same symbol and arguments hash apart.
const (
	kindNull   = 'n'
	kindSetRef = 's'
)

// hashNil stands for an unset slot or argument.
const hashNil = 0x9e3779b97f4a7c15

func hashString(s string) uint64 { return maphash.String(seed, s) }

// mix folds x into the running hash h (wyhash's multiply-fold).
func mix(h, x uint64) uint64 {
	hi, lo := bits.Mul64(h^0xa0761d6478bd642f, x^0xe7037ed1a0b428db)
	return hi ^ lo
}

// HashValues returns a content hash of the value vector, in order (a
// term's arguments, a tuple's slots, an index key): vectors that are
// pairwise SameValue hash equal. Unequal vectors may collide, so
// callers that key a table by it must confirm each match with
// SameValue. The hash is stable within one process only.
func HashValues(vals []Value) uint64 {
	h := uint64(len(vals))
	for _, v := range vals {
		if v == nil {
			h = mix(h, hashNil)
		} else {
			h = mix(h, v.hash())
		}
	}
	return h
}

// termHash hashes the term fn(args) of the given kind from its
// arguments' hash.
func termHash(kind byte, fn string, args uint64) uint64 {
	return mix(hashString(fn)^uint64(kind), args)
}

// hashMap maps content hashes to entries. An entry whose hash is
// already taken goes to that hash's overflow list, so lookups resolve
// equality on every entry under a hash; an eq callback decides it.
type hashMap[T any] struct {
	first map[uint64]T
	more  map[uint64][]T
}

// len returns the number of entries.
func (m *hashMap[T]) len() int {
	n := len(m.first)
	for _, vs := range m.more {
		n += len(vs)
	}
	return n
}

// get returns the entry under h for which eq holds.
func (m *hashMap[T]) get(h uint64, eq func(T) bool) (T, bool) {
	if v, ok := m.first[h]; ok {
		if eq(v) {
			return v, true
		}
		for _, v := range m.more[h] {
			if eq(v) {
				return v, true
			}
		}
	}
	var zero T
	return zero, false
}

// intern returns the entry under h for which eq holds and true, or else
// puts mk() under h and returns it and false, looking h up once.
func (m *hashMap[T]) intern(h uint64, eq func(T) bool, mk func() T) (T, bool) {
	first, ok := m.first[h]
	if !ok {
		if m.first == nil {
			m.first = make(map[uint64]T)
		}
		v := mk()
		m.first[h] = v
		return v, false
	}
	if eq(first) {
		return first, true
	}
	for _, w := range m.more[h] {
		if eq(w) {
			return w, true
		}
	}
	if m.more == nil {
		m.more = make(map[uint64][]T)
	}
	v := mk()
	m.more[h] = append(m.more[h], v)
	return v, false
}

// put adds v under h. Callers add only entries get did not find.
func (m *hashMap[T]) put(h uint64, v T) {
	m.intern(h, func(T) bool { return false }, func() T { return v })
}

// remove deletes the entry under h for which eq holds, if any. The
// first overflow entry takes a removed first entry's place, so every
// other entry under h stays reachable.
func (m *hashMap[T]) remove(h uint64, eq func(T) bool) {
	first, ok := m.first[h]
	if !ok {
		return
	}
	more := m.more[h]
	if eq(first) {
		if len(more) == 0 {
			delete(m.first, h)
			return
		}
		m.first[h], more = more[0], more[1:]
	} else if i := slices.IndexFunc(more, eq); i >= 0 {
		more = slices.Delete(more, i, i+1)
	} else {
		return
	}
	m.more[h] = more
}
