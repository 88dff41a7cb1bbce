package nr

import (
	"fmt"
	"strings"
)

// Path is a sequence of field labels descending from a schema root
// record. Traversal through a set field implicitly descends into the
// set's element type (set elements are unlabeled in the NR model), so
// a path such as ["Orgs", "Projects"] names the Projects set nested
// inside an Org element of the top-level Orgs set.
type Path []string

// String renders the path dotted, e.g. "Orgs.Projects".
func (p Path) String() string { return strings.Join(p, ".") }

// Equal reports whether two paths are identical.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of p.
func (p Path) Clone() Path {
	q := make(Path, len(p))
	copy(q, p)
	return q
}

// ParsePath splits a dotted path string.
func ParsePath(s string) Path {
	if s == "" {
		return nil
	}
	return Path(strings.Split(s, "."))
}

// Schema is an NR schema: a named root record whose fields are the
// schema roots. Following the paper we assume a single root of record
// type (XML documents are modeled this way too).
type Schema struct {
	Name string
	Root *Type
}

// NewSchema constructs a schema and validates it, returning an error
// describing the first problem found.
func NewSchema(name string, root *Type) (*Schema, error) {
	s := &Schema{Name: name, Root: root}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// MustSchema is NewSchema, panicking on error. Intended for tests and
// statically known schemas.
func MustSchema(name string, root *Type) *Schema {
	s, err := NewSchema(name, root)
	if err != nil {
		panic(err)
	}
	return s
}

// Validate checks the structural well-formedness rules: the root is a
// record, labels are non-empty and unique within each record/choice,
// set element types are non-nil, and no type node is nil.
func (s *Schema) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("nr: schema has empty name")
	}
	if s.Root == nil {
		return fmt.Errorf("nr: schema %s has nil root", s.Name)
	}
	if s.Root.Kind != KindRecord {
		return fmt.Errorf("nr: schema %s root must be a record, got %s", s.Name, s.Root.Kind)
	}
	return validateType(s.Name, s.Root, nil)
}

func validateType(schema string, t *Type, at Path) error {
	if t == nil {
		return fmt.Errorf("nr: schema %s: nil type at %q", schema, at)
	}
	switch t.Kind {
	case KindString, KindInt:
		return nil
	case KindSet:
		if t.Elem == nil {
			return fmt.Errorf("nr: schema %s: set at %q has nil element type", schema, at)
		}
		return validateType(schema, t.Elem, at)
	case KindRecord, KindChoice:
		seen := make(map[string]bool, len(t.Fields))
		for _, f := range t.Fields {
			if f.Label == "" {
				return fmt.Errorf("nr: schema %s: empty field label at %q", schema, at)
			}
			if strings.ContainsAny(f.Label, ". \t\n") {
				return fmt.Errorf("nr: schema %s: field label %q at %q contains reserved characters", schema, f.Label, at)
			}
			if seen[f.Label] {
				return fmt.Errorf("nr: schema %s: duplicate field label %q at %q", schema, f.Label, at)
			}
			seen[f.Label] = true
			if err := validateType(schema, f.Type, append(at, f.Label)); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("nr: schema %s: unknown kind %d at %q", schema, int(t.Kind), at)
	}
}
