package nr

import "fmt"

// Resolve walks the path from the schema root and returns the type it
// names. Set types are traversed transparently: a label following a
// set field is looked up in the set's element record. The returned
// type is the type of the final field itself (so resolving
// ["Companies"] yields the SetOf type, not its element).
func (s *Schema) Resolve(p Path) (*Type, error) {
	t := s.Root
	for i, label := range p {
		// Descend through sets to their element records.
		for t.Kind == KindSet {
			t = t.Elem
		}
		if t.Kind != KindRecord && t.Kind != KindChoice {
			return nil, fmt.Errorf("nr: schema %s: path %q: %q is not addressable inside an atomic type", s.Name, p, label)
		}
		f, ok := t.Field(label)
		if !ok {
			return nil, fmt.Errorf("nr: schema %s: path %q: no field %q at %q", s.Name, p, label, Path(p[:i]))
		}
		t = f.Type
	}
	return t, nil
}

// BySKName returns the set type whose Skolem name matches, or nil.
func (c *Catalog) BySKName(sk string) *SetType {
	for _, st := range c.Sets {
		if st.skName == sk {
			return st
		}
	}
	return nil
}

// Children returns the child set types of st in declaration order.
func (c *Catalog) Children(st *SetType) []*SetType {
	var out []*SetType
	for _, child := range c.Sets {
		if child.Parent == st {
			out = append(out, child)
		}
	}
	return out
}

// IsAtomic reports whether t is one of the atomic types.
func (t *Type) IsAtomic() bool {
	return t.Kind == KindString || t.Kind == KindInt
}
