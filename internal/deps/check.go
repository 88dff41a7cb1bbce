package deps

import (
	"fmt"

	"muse/internal/instance"
	"muse/internal/nr"
)

// Violation describes one constraint violation found in an instance.
type Violation struct {
	Constraint string
	Detail     string
}

func (v Violation) String() string { return v.Constraint + ": " + v.Detail }

// Check validates the instance against every declared constraint and
// returns all violations found (empty means valid). Muse uses this to
// guarantee that the examples it shows a designer are valid instances
// (Sec. III-B: "a valid instance for F is always constructed"). The
// wizards run it on every constructed example, so the per-tuple work
// gathers projections in a reused buffer and looks them up by content.
func (s *Set) Check(in *instance.Instance) []Violation {
	var out []Violation
	for _, k := range s.Keys {
		// Keys apply within each occurrence of the set (and for
		// relational top-level sets there is exactly one occurrence).
		st := s.Cat.ByPath(k.Set)
		out = checkAgreement(in, st, k.Attrs, st.Atoms, out, func(prev, t *instance.Tuple) Violation {
			return Violation{k.String(), fmt.Sprintf("tuples %s and %s agree on the key but differ elsewhere", prev, t)}
		})
	}
	for _, f := range s.FDs {
		out = checkAgreement(in, s.Cat.ByPath(f.Set), f.From, f.To, out, func(prev, t *instance.Tuple) Violation {
			return Violation{f.String(), fmt.Sprintf("tuples %s and %s agree on %v but differ on %v", prev, t, f.From, f.To)}
		})
	}
	return append(out, s.checkRefs(in)...)
}

// Valid reports whether the instance satisfies every constraint.
func (s *Set) Valid(in *instance.Instance) bool { return len(s.Check(in)) == 0 }

// checkAgreement appends to out the violation of each tuple, in each
// occurrence of st, that agrees on from with the last earlier tuple
// that does, prev, but differs from it on to.
func checkAgreement(in *instance.Instance, st *nr.SetType, from, to []string, out []Violation, violation func(prev, t *instance.Tuple) Violation) []Violation {
	buf := make([]instance.Value, 0, len(from))
	in.EachOccurrence(st, func(occ *instance.SetVal) {
		var seen instance.VecMap[*instance.Tuple]
		for _, t := range occ.View() {
			buf = appendProj(buf[:0], t, from)
			if prev, ok := seen.Get(buf); ok && !sameProjection(prev, t, to) {
				out = append(out, violation(prev, t))
			}
			seen.Put(buf, t)
		}
	})
	return out
}

func (s *Set) checkRefs(in *instance.Instance) []Violation {
	var out []Violation
	var buf []instance.Value
	for _, r := range s.Refs {
		from := s.Cat.ByPath(r.FromSet)
		to := s.Cat.ByPath(r.ToSet)
		// Index the target side by the referenced attributes.
		var index instance.VecMap[bool]
		in.EachOccurrence(to, func(occ *instance.SetVal) {
			for _, t := range occ.View() {
				buf = appendProj(buf[:0], t, r.ToAttrs)
				index.Put(buf, true)
			}
		})
		in.EachOccurrence(from, func(occ *instance.SetVal) {
			for _, t := range occ.View() {
				buf = appendProj(buf[:0], t, r.FromAttrs)
				if _, ok := index.Get(buf); !ok {
					out = append(out, Violation{
						Constraint: r.String(),
						Detail:     fmt.Sprintf("tuple %s has no match in %s", t, r.ToSet),
					})
				}
			}
		})
	}
	return out
}

// appendProj appends the values of t on attrs, unset ones as nil, to
// buf.
func appendProj(buf []instance.Value, t *instance.Tuple, attrs []string) []instance.Value {
	for _, a := range attrs {
		buf = append(buf, t.Get(a))
	}
	return buf
}

func sameProjection(a, b *instance.Tuple, attrs []string) bool {
	for _, at := range attrs {
		if !instance.SameValue(a.Get(at), b.Get(at)) {
			return false
		}
	}
	return true
}
