package instance

import (
	"strconv"
	"strings"
	"sync/atomic"
)

// Value is a value occurring in an instance: a Const, a Null, or a
// SetRef. Values are immutable; share them freely.
type Value interface {
	// Key returns the canonical encoding of the value. Two values are
	// equal iff their keys are equal. Identity checks never need it
	// (they use hash and SameValue); it is the rendering and ordering
	// encoding.
	Key() string
	// String renders the value for display.
	String() string
	// appendKey appends the canonical encoding to b and returns the
	// extended slice, without memoizing it.
	appendKey(b []byte) []byte
	// hash returns the value's content hash: equal values hash equal.
	hash() uint64
	isValue()
}

// Const is an atomic constant. All constants are carried as strings;
// integer constants are their decimal rendering (the NR atomic types
// only matter for schema validation, not for value identity). Only C, CI
// and Instance.InternConst build one: they set the hash it carries.
type Const struct {
	S string
	h uint64
}

func (c Const) isValue() {}

// Key implements Value.
func (c Const) Key() string {
	if !needsEscape(c.S) {
		return "c\x00" + c.S
	}
	return string(c.appendKey(make([]byte, 0, len(c.S)+8)))
}

func (c Const) appendKey(b []byte) []byte {
	b = append(b, 'c', 0)
	return appendEscaped(b, c.S)
}

func (c Const) hash() uint64 { return c.h }

// String implements Value.
func (c Const) String() string { return c.S }

// C constructs a string constant.
func C(s string) Const { return Const{S: s, h: hashString(s)} }

// CI constructs an integer constant.
func CI(i int) Const { return C(strconv.Itoa(i)) }

// Null is a labeled null, Skolemized: two nulls created for the same
// reason (same function symbol, same arguments) are the same null.
// A Null with no arguments is a plain named null (N1, N2, ...).
//
// Nulls are immutable, so the content hash and the canonical key are
// each computed once, on first use, and cached behind atomics, so
// readers sharing one instance stay race-free.
type Null struct {
	Fn   string
	Args []Value

	h   atomic.Uint64 // content hash; 0 until computed
	key atomic.Pointer[string]
}

func (n *Null) isValue() {}

// Key implements Value.
func (n *Null) Key() string {
	if k := n.key.Load(); k != nil {
		return *k
	}
	k := string(n.appendKey(make([]byte, 0, keySize(n.Fn, n.Args))))
	n.key.Store(&k)
	return k
}

func (n *Null) appendKey(b []byte) []byte {
	if k := n.key.Load(); k != nil {
		return append(b, *k...)
	}
	b = append(b, 'n', 0)
	return appendTerm(b, n.Fn, n.Args)
}

func (n *Null) hash() uint64 {
	if h := n.h.Load(); h != 0 {
		return h
	}
	h := termHash(kindNull, n.Fn, HashValues(n.Args))
	n.h.Store(h)
	return h
}

// String implements Value.
func (n *Null) String() string {
	if len(n.Args) == 0 {
		return n.Fn
	}
	var b strings.Builder
	writeTermDisplay(&b, n.Fn, n.Args)
	return b.String()
}

// NewNull constructs a Skolemized labeled null.
func NewNull(fn string, args ...Value) *Null { return &Null{Fn: fn, Args: args} }

// SetRef is a SetID: the identity of a nested set, written as a
// grouping (Skolem) function applied to argument values, e.g.
// SKProjs(111, IBM, Almaden). Top-level sets have a SetRef with the
// set's path as function symbol and no arguments.
//
// SetRefs are immutable; the hash and the key are cached like Null's.
type SetRef struct {
	Fn   string
	Args []Value

	h   atomic.Uint64
	key atomic.Pointer[string]
}

func (s *SetRef) isValue() {}

// Key implements Value.
func (s *SetRef) Key() string {
	if k := s.key.Load(); k != nil {
		return *k
	}
	k := string(s.appendKey(make([]byte, 0, keySize(s.Fn, s.Args))))
	s.key.Store(&k)
	return k
}

func (s *SetRef) appendKey(b []byte) []byte {
	if k := s.key.Load(); k != nil {
		return append(b, *k...)
	}
	b = append(b, 's', 0)
	return appendTerm(b, s.Fn, s.Args)
}

func (s *SetRef) hash() uint64 {
	if h := s.h.Load(); h != 0 {
		return h
	}
	h := termHash(kindSetRef, s.Fn, HashValues(s.Args))
	s.h.Store(h)
	return h
}

// String implements Value.
func (s *SetRef) String() string {
	var b strings.Builder
	writeTermDisplay(&b, s.Fn, s.Args)
	return b.String()
}

// NewSetRef constructs a SetID term.
func NewSetRef(fn string, args ...Value) *SetRef { return &SetRef{Fn: fn, Args: args} }

// appendTerm appends the canonical term encoding, composing argument
// keys in place (no intermediate strings). Nil arguments — Skolem
// terms over unset source slots — encode as empty, like unset slots in
// Tuple.Key; every real value's key starts with a kind byte, so empty
// is unambiguous. The exception is a sole nil argument, which encodes
// as the lone byte escByte: empty would render F(_) as F().
func appendTerm(b []byte, fn string, args []Value) []byte {
	b = appendEscaped(b, fn)
	b = append(b, '\x01')
	if len(args) == 1 && args[0] == nil {
		b = append(b, escByte)
	}
	for i, a := range args {
		if i > 0 {
			b = append(b, '\x02')
		}
		if a != nil {
			b = a.appendKey(b)
		}
	}
	return append(b, '\x03')
}

// The canonical encodings separate their parts with the bytes 0x00
// through 0x06: kind tag, term symbol, arguments and term end
// (appendTerm), tuple slots (Tuple.Key), and the composite keys other
// packages compose from value keys: 0x05 in deps.Check's projections,
// 0x06 in Muse-G's dataImplied groups. Inside constant strings and
// term symbols those bytes, and the escape byte escByte itself, are
// written as escByte followed by '0'+byte, so no payload can forge a
// boundary and keys stay injective. Strings without bytes below 0x08
// encode as themselves.
const escByte = 0x07

// needsEscape reports whether s holds a byte appendEscaped rewrites.
func needsEscape(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] <= escByte {
			return true
		}
	}
	return false
}

// appendEscaped appends s to b with the bytes 0x00–0x07 escaped.
func appendEscaped(b []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		if c := s[i]; c <= escByte {
			b = append(b, s[start:i]...)
			b = append(b, escByte, '0'+c)
			start = i + 1
		}
	}
	return append(b, s[start:]...)
}

// keySize estimates the encoded term length, to size the key buffer in
// one allocation.
func keySize(fn string, args []Value) int {
	n := len(fn) + 4
	for _, a := range args {
		switch v := a.(type) {
		case Const:
			n += len(v.S) + 3
		default:
			n += 24
		}
	}
	return n
}

func writeTermDisplay(b *strings.Builder, fn string, args []Value) {
	b.WriteString(fn)
	b.WriteByte('(')
	for i, a := range args {
		if i > 0 {
			b.WriteByte(',')
		}
		if a != nil {
			b.WriteString(a.String())
		} else {
			b.WriteByte('_')
		}
	}
	b.WriteByte(')')
}

// AppendDisplay appends v's display rendering (exactly Value.String) to
// b and returns the extended slice. Nil values append nothing. Hot
// render paths (the HTTP server's direct JSON writer) use it to put
// values into a reused buffer without the per-value string String
// allocates.
func AppendDisplay(b []byte, v Value) []byte {
	switch t := v.(type) {
	case nil:
		return b
	case Const:
		return append(b, t.S...)
	case *Null:
		if len(t.Args) == 0 {
			return append(b, t.Fn...)
		}
		return appendTermDisplay(b, t.Fn, t.Args)
	case *SetRef:
		return appendTermDisplay(b, t.Fn, t.Args)
	}
	return append(b, v.String()...)
}

func appendTermDisplay(b []byte, fn string, args []Value) []byte {
	b = append(b, fn...)
	b = append(b, '(')
	for i, a := range args {
		if i > 0 {
			b = append(b, ',')
		}
		if a != nil {
			b = AppendDisplay(b, a)
		} else {
			b = append(b, '_')
		}
	}
	return append(b, ')')
}

// AppendValueKey appends v's canonical key to b and returns the
// extended slice, without building an intermediate string for a
// constant. Nil values append nothing. A Null's or SetRef's key is
// memoized on the value, as by Key.
func AppendValueKey(b []byte, v Value) []byte {
	switch t := v.(type) {
	case nil:
		return b
	case Const:
		return t.appendKey(b)
	}
	return append(b, v.Key()...)
}

// SameValue reports value equality: constants by their strings, nulls
// and SetIDs structurally (function symbol, then each argument). Nil
// values are equal only to each other. Pointer-identical terms, and
// terms whose cached hashes differ, are decided without visiting the
// arguments. SameValue agrees with Key equality.
func SameValue(a, b Value) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	switch x := a.(type) {
	case Const:
		y, ok := b.(Const)
		return ok && x.S == y.S
	case *Null:
		y, ok := b.(*Null)
		return ok && (x == y || sameTerm(x.h.Load(), y.h.Load(), x.Fn, y.Fn, x.Args, y.Args))
	case *SetRef:
		y, ok := b.(*SetRef)
		return ok && (x == y || sameTerm(x.h.Load(), y.h.Load(), x.Fn, y.Fn, x.Args, y.Args))
	}
	return false
}

// sameTerm compares two terms of one kind given their cached hashes (0
// when not yet computed).
func sameTerm(ha, hb uint64, fa, fb string, aa, ab []Value) bool {
	if ha != 0 && hb != 0 && ha != hb {
		return false
	}
	return fa == fb && sameValues(aa, ab)
}

// sameValues reports pairwise SameValue over two value vectors of
// equal length.
func sameValues(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !SameValue(a[i], b[i]) {
			return false
		}
	}
	return true
}

// IsConst reports whether v is a constant.
func IsConst(v Value) bool { _, ok := v.(Const); return ok }

// IsNull reports whether v is a labeled null.
func IsNull(v Value) bool { _, ok := v.(*Null); return ok }

// IsSetRef reports whether v is a SetID.
func IsSetRef(v Value) bool { _, ok := v.(*SetRef); return ok }
