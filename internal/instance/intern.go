package instance

import (
	"strings"
	"sync"
)

// This file implements the per-Instance intern table of constants and
// nulls; the occurrence table interns SetIDs (Instance.InternSet).
//
// Interning canonicalizes values by content: within one Instance, two
// equal values obtained through Intern* share a single pointer (for
// *Null and *SetRef) or a single boxed interface word (for Const), so
//
//   - SameValue decides equality on the hot path with the a == b
//     pointer comparison instead of visiting arguments,
//   - each distinct term is hashed once, on one canonical copy, instead
//     of once per minted duplicate, and
//   - storing an interned value into a tuple slot copies an interface
//     header instead of boxing a fresh object.
//
// The table is a hashMap keyed by content hash; a lookup confirms the
// entries under the hash structurally. Interned values are immutable,
// like all Values: Intern* retains a clone of the caller's arguments
// (and of a constant's string) on a table miss, so callers may reuse
// scratch, and nothing handed out by the table may ever be mutated.
// One mutex guards the map. The hit path allocates nothing.

type internTable struct {
	mu sync.Mutex
	m  hashMap[Value]
}

// size returns the number of interned values.
func (tb *internTable) size() int {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return tb.m.len()
}

// TermArgs is one Skolem argument vector, hashed once, for minting
// several terms over it: the chase mints every null of an assignment,
// and every SetID grouped by all of its source values, from the same
// arguments. The first intern miss after Set retains one clone of the
// vector, which every later miss shares.
type TermArgs struct {
	vals  []Value
	hash  uint64
	owned []Value
}

// Set makes vals the vector's contents and hashes them. The TermArgs
// reads vals until the next Set; callers may reuse the slice, but must
// call Set again after changing its contents.
func (a *TermArgs) Set(vals []Value) {
	a.vals, a.hash, a.owned = vals, HashValues(vals), nil
}

// retain returns the vector's retained clone, made on first use.
func (a *TermArgs) retain() []Value {
	if a.owned == nil && len(a.vals) > 0 {
		a.owned = append([]Value(nil), a.vals...)
	}
	return a.owned
}

// InternConst returns the canonical boxed Const for s. The returned
// interface value shares one data word per distinct string within the
// instance, so assigning it to tuple slots never re-boxes.
func (in *Instance) InternConst(s string) Value {
	tb := &in.intern
	h := hashString(s)
	tb.mu.Lock()
	v, _ := tb.m.intern(h, func(v Value) bool {
		c, isConst := v.(Const)
		return isConst && c.S == s
	}, func() Value {
		// Clone: s may be a slice of a larger buffer (a CSV record).
		return Const{S: strings.Clone(s), h: h}
	})
	tb.mu.Unlock()
	return v
}

// InternNull returns the canonical *Null for the Skolem term fn(a). A
// miss retains a's clone of its arguments; callers may reuse their
// scratch.
func (in *Instance) InternNull(fn string, a *TermArgs) *Null {
	return in.internNull(termHash(kindNull, fn, a.hash), fn, a)
}

// internNull is InternNull with the term's hash given; tests pass it
// explicitly to force distinct nulls under one hash.
func (in *Instance) internNull(h uint64, fn string, a *TermArgs) *Null {
	tb := &in.intern
	tb.mu.Lock()
	v, _ := tb.m.intern(h, func(v Value) bool {
		n, isNull := v.(*Null)
		return isNull && n.Fn == fn && sameValues(n.Args, a.vals)
	}, func() Value {
		return &Null{Fn: fn, Args: a.retain(), h: h}
	})
	tb.mu.Unlock()
	return v.(*Null)
}

// Interned returns the number of distinct constants and nulls in the
// instance's intern table (for tests and diagnostics).
func (in *Instance) Interned() int { return in.intern.size() }
