package instance

import "sync"

// This file implements the per-Instance value intern table.
//
// Interning canonicalizes values by their canonical key: within one
// Instance, two equal values obtained through Intern* share a single
// pointer (for *Null and *SetRef) or a single boxed interface word
// (for Const), so
//
//   - SameValue decides equality on the hot path with the a == b
//     pointer comparison instead of rendering and comparing keys,
//   - the memoized key caches of Null/SetRef collapse to one canonical
//     copy per distinct value instead of one per minted duplicate, and
//   - storing an interned value into a tuple slot copies an interface
//     header instead of boxing a fresh object.
//
// Interned values are immutable, like all Values: Intern* clones the
// caller's argument slice on a table miss, so callers may reuse scratch
// slices, and nothing handed out by the table may ever be mutated.
// One mutex guards the map and the key buffer. The hit path allocates
// nothing: keys are composed in the table's own buffer and looked up
// with the compiler's []byte-to-string map optimization.

type internTable struct {
	mu  sync.Mutex
	m   map[string]Value
	buf []byte // key scratch, reused under mu
}

// lock locks the table and returns its key buffer, emptied and
// started with the kind tag.
func (tb *internTable) lock(kind byte) []byte {
	tb.mu.Lock()
	if tb.m == nil {
		tb.m = make(map[string]Value)
	}
	return append(tb.buf[:0], kind, 0)
}

// unlock keeps the (possibly grown) key buffer and unlocks the table.
func (tb *internTable) unlock(b []byte) {
	tb.buf = b
	tb.mu.Unlock()
}

// size returns the number of interned values.
func (tb *internTable) size() int {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	return len(tb.m)
}

// InternConst returns the canonical boxed Const for s. The returned
// interface value shares one data word per distinct string within the
// instance, so assigning it to tuple slots never re-boxes.
func (in *Instance) InternConst(s string) Value {
	tb := &in.intern
	b := append(tb.lock('c'), s...)
	v, ok := tb.m[string(b)]
	if !ok {
		canon := string(b)
		// Share the key's bytes: canon is "c\x00" + s.
		v = Const{S: canon[2:]}
		tb.m[canon] = v
	}
	tb.unlock(b)
	return v
}

// InternNull returns the canonical *Null for the Skolem term fn(args).
// The args slice is cloned on a miss; callers may reuse it. The
// canonical key is pre-stored in the value's memo, so the one canonical
// null never re-renders it.
func (in *Instance) InternNull(fn string, args []Value) *Null {
	return in.internNull(fn, args, nil)
}

// InternNullShared is InternNull for callers minting several nulls
// that share one argument vector per round (the chase: every null of
// one assignment takes the same Skolem arguments). owned points to the
// round's retained clone of args — nil until some miss first needs to
// keep the arguments, at which point one clone is made and shared by
// all subsequent misses of the round. Callers must reset *owned to nil
// whenever the scratch args contents change.
func (in *Instance) InternNullShared(fn string, args []Value, owned *[]Value) *Null {
	return in.internNull(fn, args, owned)
}

func (in *Instance) internNull(fn string, args []Value, owned *[]Value) *Null {
	tb := &in.intern
	b := appendTerm(tb.lock('n'), fn, args)
	v, ok := tb.m[string(b)]
	if !ok {
		retained := args
		if owned != nil {
			if *owned == nil {
				*owned = cloneArgs(args)
			}
			retained = *owned
		} else {
			retained = cloneArgs(args)
		}
		canon := string(b)
		n := &Null{Fn: fn, Args: retained}
		n.key.Store(&canon)
		tb.m[canon] = n
		v = n
	}
	tb.unlock(b)
	return v.(*Null)
}

// InternSetRef returns the canonical *SetRef for the SetID term
// fn(args). Cloning and key pre-storage follow InternNull.
func (in *Instance) InternSetRef(fn string, args []Value) *SetRef {
	tb := &in.intern
	b := appendTerm(tb.lock('s'), fn, args)
	v, ok := tb.m[string(b)]
	if !ok {
		canon := string(b)
		s := &SetRef{Fn: fn, Args: cloneArgs(args)}
		s.key.Store(&canon)
		tb.m[canon] = s
		v = s
	}
	tb.unlock(b)
	return v.(*SetRef)
}

// Interned returns the number of distinct values in the instance's
// intern table (for tests and diagnostics).
func (in *Instance) Interned() int { return in.intern.size() }

func cloneArgs(args []Value) []Value {
	if len(args) == 0 {
		return nil
	}
	return append([]Value(nil), args...)
}
