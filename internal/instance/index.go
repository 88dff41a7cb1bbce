package instance

// This file holds the two ways the engines group a set's tuples by
// their values on some slots: a hash index (the chase's generators and
// the query store's indexes, which serve the query kernel's probes and
// the ranker's coverage) and an exact distinct counter (the planner's
// statistics and the uniqueness verdicts behind refuted probes). Both
// key a value vector by its content hash. The counter confirms every
// hash hit with SameValue; an index leaves collisions in its buckets
// for the SameValue checks that its callers make on every indexed slot.

// hashVector hashes the value vectors of Index and CountDistinct.
// Tests replace it to force every hash equal.
var hashVector = HashValues

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

// CountDistinct counts, in one pass over tuples, the distinct value
// vectors on each slot list, and the tuples that leave some slot of a
// list unset (they count toward no vector). A hash hit counts as a
// repeat only when SameValue confirms every slot, so the counts are
// exact.
func CountDistinct(tuples []*Tuple, lists [][]int) (distinct, unset []int) {
	distinct, unset = make([]int, len(lists)), make([]int, len(lists))
	// Each table is sized for all-distinct vectors, which a uniqueness
	// verdict expects, so none grows during the pass.
	seen := make([]hashMap[*Tuple], len(lists))
	for i := range seen {
		seen[i].first = make(map[uint64]*Tuple, len(tuples))
	}
	var vals []Value
	for _, t := range tuples {
	next:
		for i, slots := range lists {
			vals = vals[:0]
			for _, sl := range slots {
				if t.vals[sl] == nil {
					unset[i]++
					continue next
				}
				vals = append(vals, t.vals[sl])
			}
			if _, repeat := seen[i].intern(hashVector(vals), func(p *Tuple) bool { return sameOn(p, t, slots) }, func() *Tuple { return t }); !repeat {
				distinct[i]++
			}
		}
	}
	return distinct, unset
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
