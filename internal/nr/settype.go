package nr

import (
	"fmt"
	"slices"
	"strings"
)

// SetType describes one nested set of a schema: its position, its
// element record's atomic attributes (flattened through intermediate
// records with dotted labels), its set-valued child fields, and its
// parent set (nil for a top-level set directly under the schema root).
//
// Mappings range variables over set types, and grouping functions are
// designed per set type, so SetType is the unit both wizards work in.
type SetType struct {
	Schema *Schema
	// Path names the set field from the schema root, e.g.
	// ["Orgs", "Projects"].
	Path Path
	// Name is the last label of Path ("Projects").
	Name string
	// Elem is the element type of the set (a record in the strictly
	// alternating fragment the paper's algorithms are stated for).
	Elem *Type
	// Atoms lists the atomic attribute labels of Elem, flattened
	// through nested records ("address.city"). Order follows the
	// schema declaration.
	Atoms []string
	// SetFields lists the labels of Elem's set-valued fields, i.e. the
	// child nested sets. Order follows the schema declaration.
	SetFields []string
	// Parent is the enclosing set type, nil for top-level sets.
	Parent *SetType
	// Depth is 0 for top-level sets, Parent.Depth+1 otherwise.
	Depth int
	// skName is the unique SetID (Skolem function) name, assigned by
	// the catalog.
	skName string
	// children maps set-field labels to the child set types, assigned
	// by the catalog.
	children map[string]*SetType
	// slots maps every atom and set-field label to its position in a
	// tuple's value array, assigned by the catalog (see Slot).
	slots map[string]int
}

// NumSlots returns the number of value slots of the element record:
// the atoms followed by the set fields.
func (st *SetType) NumSlots() int { return len(st.Atoms) + len(st.SetFields) }

// Slot returns the value-array position of an atom or set-field label,
// or -1 when the label names neither. The layout is fixed: atoms
// occupy slots [0, len(Atoms)) in declaration order and set fields
// follow in declaration order — instance.Tuple stores its values in
// exactly this order, and slot-addressed access (instance.Tuple's
// PutSlot) depends on it.
func (st *SetType) Slot(label string) int {
	if i, ok := st.slots[label]; ok {
		return i
	}
	return -1
}

// Child returns the child set type reached through the given set-field
// label (possibly dotted, matching SetFields), or nil. It is the
// allocation-free equivalent of resolving Path + label through the
// catalog.
func (st *SetType) Child(field string) *SetType { return st.children[field] }

// SKName returns the SetID / Skolem function name of the set, e.g.
// "SKProjects". Names are unique within a schema: when two sets share
// a final label the full path is embedded ("SKOrgs_Projects").
func (st *SetType) SKName() string { return st.skName }

// String renders the set type as "Schema.Path".
func (st *SetType) String() string {
	return st.Schema.Name + "." + st.Path.String()
}

// HasAtom reports whether label names an atomic attribute of the set's
// element record.
func (st *SetType) HasAtom(label string) bool {
	for _, a := range st.Atoms {
		if a == label {
			return true
		}
	}
	return false
}

// HasSetField reports whether label names a set-valued field of the
// set's element record.
func (st *SetType) HasSetField(label string) bool {
	for _, f := range st.SetFields {
		if f == label {
			return true
		}
	}
	return false
}

// Catalog indexes all set types of a schema.
type Catalog struct {
	Schema *Schema
	// Sets lists all set types in breadth-first order from the root
	// (the probe order Muse-G Step 1 uses on the target schema).
	Sets   []*SetType
	byPath map[string]*SetType
	top    []*SetType // the top-level prefix of Sets, clipped
}

// NewCatalog walks the schema and builds its set-type catalog. It
// returns an error if the schema strays outside the fragment the Muse
// algorithms operate on (set elements must be records, possibly with
// nested records; choice types may appear only below atomic use).
func NewCatalog(s *Schema) (*Catalog, error) {
	c := &Catalog{Schema: s, byPath: make(map[string]*SetType)}
	// Collect breadth-first: top-level sets first, then their children.
	type workItem struct {
		parent *SetType
		prefix Path
		rec    *Type
	}
	queue := []workItem{{parent: nil, prefix: nil, rec: s.Root}}
	for len(queue) > 0 {
		item := queue[0]
		queue = queue[1:]
		var sets []*SetType
		if err := collectSets(s, item.rec, item.prefix, item.parent, &sets); err != nil {
			return nil, err
		}
		for _, st := range sets {
			c.Sets = append(c.Sets, st)
			c.byPath[st.Path.String()] = st
			queue = append(queue, workItem{parent: st, prefix: st.Path, rec: st.Elem})
		}
	}
	for _, st := range c.Sets {
		if st.Parent == nil {
			c.top = append(c.top, st)
		}
	}
	c.top = slices.Clip(c.top)
	c.assignSKNames()
	for _, st := range c.Sets {
		st.slots = make(map[string]int, st.NumSlots())
		for i, a := range st.Atoms {
			st.slots[a] = i
		}
		for i, f := range st.SetFields {
			st.slots[f] = len(st.Atoms) + i
		}
	}
	for _, st := range c.Sets {
		if st.Parent == nil {
			continue
		}
		if st.Parent.children == nil {
			st.Parent.children = make(map[string]*SetType)
		}
		st.Parent.children[strings.Join(st.Path[len(st.Parent.Path):], ".")] = st
	}
	return c, nil
}

// MustCatalog is NewCatalog, panicking on error.
func MustCatalog(s *Schema) *Catalog {
	c, err := NewCatalog(s)
	if err != nil {
		panic(err)
	}
	return c
}

// collectSets finds the set fields directly reachable from rec without
// passing through another set, flattening intermediate records.
func collectSets(s *Schema, rec *Type, prefix Path, parent *SetType, out *[]*SetType) error {
	if rec.Kind != KindRecord {
		if rec.Kind == KindChoice {
			// Choice of records: collect from every branch; labels are
			// prefixed by the branch label via the recursive call below.
			for _, f := range rec.Fields {
				if f.Type.Kind == KindRecord || f.Type.Kind == KindChoice {
					if err := collectSets(s, f.Type, append(prefix.Clone(), f.Label), parent, out); err != nil {
						return err
					}
				}
			}
			return nil
		}
		return nil
	}
	for _, f := range rec.Fields {
		switch f.Type.Kind {
		case KindSet:
			elem := f.Type.Elem
			for elem.Kind == KindSet {
				// SetOf SetOf t: insert an implicit record is out of
				// scope; reject to keep SetIDs well defined.
				return fmt.Errorf("nr: schema %s: set of set at %q is not supported", s.Name, append(prefix.Clone(), f.Label))
			}
			st := &SetType{
				Schema: s,
				Path:   append(prefix.Clone(), f.Label),
				Name:   f.Label,
				Elem:   elem,
				Parent: parent,
			}
			if parent != nil {
				st.Depth = parent.Depth + 1
			}
			if elem.Kind == KindRecord || elem.Kind == KindChoice {
				flattenAtoms(elem, nil, &st.Atoms, &st.SetFields)
			} else {
				// SetOf String/Int: model as a single implicit atom.
				st.Atoms = []string{"value"}
			}
			*out = append(*out, st)
		case KindRecord, KindChoice:
			if err := collectSets(s, f.Type, append(prefix.Clone(), f.Label), parent, out); err != nil {
				return err
			}
		}
	}
	return nil
}

// flattenAtoms walks a record/choice collecting dotted atomic labels
// and direct set-field labels.
func flattenAtoms(rec *Type, prefix []string, atoms *[]string, setFields *[]string) {
	for _, f := range rec.Fields {
		label := strings.Join(append(append([]string{}, prefix...), f.Label), ".")
		switch f.Type.Kind {
		case KindString, KindInt:
			*atoms = append(*atoms, label)
		case KindSet:
			*setFields = append(*setFields, label)
		case KindRecord, KindChoice:
			flattenAtoms(f.Type, append(append([]string{}, prefix...), f.Label), atoms, setFields)
		}
	}
}

// assignSKNames gives every set a unique Skolem-function name: "SK" +
// final label when that is unique, otherwise "SK" + path joined by "_".
func (c *Catalog) assignSKNames() {
	count := make(map[string]int)
	for _, st := range c.Sets {
		count[st.Name]++
	}
	for _, st := range c.Sets {
		if count[st.Name] == 1 {
			st.skName = "SK" + st.Name
		} else {
			st.skName = "SK" + strings.Join(st.Path, "_")
		}
	}
}

// ByPath returns the set type with the given path, or nil.
func (c *Catalog) ByPath(p Path) *SetType { return c.byPath[p.String()] }

// ByName returns the unique set type whose final label is name. It
// returns an error when the name is absent or ambiguous.
func (c *Catalog) ByName(name string) (*SetType, error) {
	var found *SetType
	for _, st := range c.Sets {
		if st.Name == name {
			if found != nil {
				return nil, fmt.Errorf("nr: schema %s: set name %q is ambiguous (%s and %s)", c.Schema.Name, name, found.Path, st.Path)
			}
			found = st
		}
	}
	if found == nil {
		return nil, fmt.Errorf("nr: schema %s: no set named %q", c.Schema.Name, name)
	}
	return found, nil
}

// TopLevel returns the top-level set types in declaration order. The
// slice is the catalog's own, built once: callers only read it.
func (c *Catalog) TopLevel() []*SetType { return c.top }
