package mapping

import (
	"fmt"
	"strings"
	"sync/atomic"

	"muse/internal/nr"
)

// Expr is an attribute reference "v.attr" where v is a for- or
// exists-bound variable and attr is a (possibly dotted) atomic
// attribute or set field of the record the variable ranges over.
type Expr struct {
	Var  string
	Attr string
}

// String renders the expression as "v.attr".
func (e Expr) String() string { return e.Var + "." + e.Attr }

// E constructs an Expr.
func E(v, attr string) Expr { return Expr{Var: v, Attr: attr} }

// Gen is a generator binding "Var in <set>". A generator either draws
// from a top-level set of a schema (Root non-nil) or from a set field
// of an earlier-bound variable (Parent/Field set).
type Gen struct {
	Var    string
	Root   nr.Path // top-level set path, e.g. ["Companies"]
	Parent string  // earlier variable, e.g. "o"
	Field  string  // set field of the parent's record, e.g. "Projects"
}

// FromRoot constructs a generator over a top-level set.
func FromRoot(v string, path string) Gen {
	return Gen{Var: v, Root: nr.ParsePath(path)}
}

// FromParent constructs a generator over a nested set of an earlier
// variable.
func FromParent(v, parent, field string) Gen {
	return Gen{Var: v, Parent: parent, Field: field}
}

// Eq is an equality between two attribute references.
type Eq struct {
	L, R Expr
}

// String renders the equality as "l = r".
func (e Eq) String() string { return e.L.String() + " = " + e.R.String() }

// SKTerm is a grouping (Skolem) function term SKName(a1, ..., ak)
// whose arguments are source attribute references.
type SKTerm struct {
	Fn   string
	Args []Expr
}

// String renders the term, e.g. "SKProjects(c.cid,c.cname)".
func (t SKTerm) String() string {
	parts := make([]string, len(t.Args))
	for i, a := range t.Args {
		parts[i] = a.String()
	}
	return t.Fn + "(" + strings.Join(parts, ",") + ")"
}

// SKAssign is a grouping-function assignment in the where clause:
// the SetID of the target set field Set is the Skolem term SK, e.g.
// "o.Projects = SKProjects(c.cid, c.cname, c.location)".
type SKAssign struct {
	Set Expr // target variable . set field
	SK  SKTerm
}

// String renders the assignment.
func (a SKAssign) String() string { return a.Set.String() + " = " + a.SK.String() }

// OrGroup is a disjunction of alternative correspondences for one
// atomic target element:
// "(s1.A1 = t.A or ... or sn.An = t.A)". A mapping with at least one
// or-group is ambiguous (Sec. IV).
type OrGroup struct {
	Target Expr   // the ambiguous target element t.A
	Alts   []Expr // the alternative source elements s1.A1, ..., sn.An
}

// String renders the group in the paper's bold-or notation.
func (g OrGroup) String() string {
	parts := make([]string, len(g.Alts))
	for i, a := range g.Alts {
		parts[i] = a.String() + " = " + g.Target.String()
	}
	return "(" + strings.Join(parts, " or ") + ")"
}

// Mapping is one mapping of a schema mapping (S, T, Σ).
type Mapping struct {
	Name string
	Src  *nr.Catalog
	Tgt  *nr.Catalog

	For       []Gen
	ForSat    []Eq // source satisfy clause
	Exists    []Gen
	ExistsSat []Eq // target satisfy clause

	// Where holds the unambiguous source-to-target correspondences
	// (L is a source expression, R a target expression).
	Where []Eq
	// OrGroups holds the ambiguous correspondences.
	OrGroups []OrGroup
	// SKs holds the grouping-function assignments, one per target set
	// field populated by the mapping.
	SKs []SKAssign

	// info caches the resolution result. It is an atomic pointer so
	// Analyze is safe to call from concurrent chases and the
	// speculative-prefetch goroutines; structural edits clear it via
	// invalidate.
	info atomic.Pointer[Info]
}

// Ambiguous reports whether the mapping has any or-groups.
func (m *Mapping) Ambiguous() bool { return len(m.OrGroups) > 0 }

// AlternativeCount returns the number of distinct interpretations the
// ambiguous mapping encodes: the product of the or-group sizes (1 for
// an unambiguous mapping).
func (m *Mapping) AlternativeCount() int {
	n := 1
	for _, g := range m.OrGroups {
		n *= len(g.Alts)
	}
	return n
}

// SKFor returns the grouping assignment whose term has the given
// Skolem name, or nil.
func (m *Mapping) SKFor(fn string) *SKAssign {
	for i := range m.SKs {
		if m.SKs[i].SK.Fn == fn {
			return &m.SKs[i]
		}
	}
	return nil
}

// SKForSet returns the grouping assignment for the given target set
// expression (variable.field), or nil.
func (m *Mapping) SKForSet(set Expr) *SKAssign {
	for i := range m.SKs {
		if m.SKs[i].Set == set {
			return &m.SKs[i]
		}
	}
	return nil
}

// Clone returns a deep copy of the mapping (catalogs shared, clauses
// copied). The resolution cache is not carried over.
func (m *Mapping) Clone() *Mapping {
	c := &Mapping{Name: m.Name, Src: m.Src, Tgt: m.Tgt}
	c.For = append([]Gen{}, m.For...)
	c.ForSat = append([]Eq{}, m.ForSat...)
	c.Exists = append([]Gen{}, m.Exists...)
	c.ExistsSat = append([]Eq{}, m.ExistsSat...)
	c.Where = append([]Eq{}, m.Where...)
	for _, g := range m.OrGroups {
		c.OrGroups = append(c.OrGroups, OrGroup{Target: g.Target, Alts: append([]Expr{}, g.Alts...)})
	}
	for _, a := range m.SKs {
		c.SKs = append(c.SKs, SKAssign{Set: a.Set, SK: SKTerm{Fn: a.SK.Fn, Args: append([]Expr{}, a.SK.Args...)}})
	}
	return c
}

// String renders the mapping in the paper's notation.
func (m *Mapping) String() string {
	var b strings.Builder
	if m.Name != "" {
		b.WriteString(m.Name)
		b.WriteString(": ")
	}
	b.WriteString("for ")
	writeGens(&b, m.For, m.Src.Schema.Name)
	if len(m.ForSat) > 0 {
		b.WriteString("\nsatisfy ")
		writeEqs(&b, m.ForSat)
	}
	b.WriteString("\nexists ")
	writeGens(&b, m.Exists, m.Tgt.Schema.Name)
	if len(m.ExistsSat) > 0 {
		b.WriteString("\nsatisfy ")
		writeEqs(&b, m.ExistsSat)
	}
	var whereParts []string
	for _, e := range m.Where {
		whereParts = append(whereParts, e.String())
	}
	for _, g := range m.OrGroups {
		whereParts = append(whereParts, g.String())
	}
	for _, a := range m.SKs {
		whereParts = append(whereParts, a.String())
	}
	if len(whereParts) > 0 {
		b.WriteString("\nwhere ")
		b.WriteString(strings.Join(whereParts, " and "))
	}
	return b.String()
}

func writeGens(b *strings.Builder, gens []Gen, schemaName string) {
	for i, g := range gens {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(g.Var)
		b.WriteString(" in ")
		if g.Root != nil {
			b.WriteString(schemaName)
			b.WriteByte('.')
			b.WriteString(g.Root.String())
		} else {
			b.WriteString(g.Parent)
			b.WriteByte('.')
			b.WriteString(g.Field)
		}
	}
}

func writeEqs(b *strings.Builder, eqs []Eq) {
	for i, e := range eqs {
		if i > 0 {
			b.WriteString(" and ")
		}
		b.WriteString(e.String())
	}
}

// Set is a schema mapping (S, T, Σ): a source schema, a target schema,
// and a list of mappings between them.
type Set struct {
	Src      *nr.Catalog
	Tgt      *nr.Catalog
	Mappings []*Mapping
}

// NewSet constructs a schema mapping, validating that every member
// mapping resolves against the two schemas.
func NewSet(src, tgt *nr.Catalog, ms ...*Mapping) (*Set, error) {
	s := &Set{Src: src, Tgt: tgt, Mappings: ms}
	for _, m := range ms {
		if m.Src != src || m.Tgt != tgt {
			return nil, fmt.Errorf("mapping: %s is not between %s and %s", m.Name, src.Schema.Name, tgt.Schema.Name)
		}
		if _, err := m.Analyze(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Ambiguous returns the ambiguous member mappings.
func (s *Set) Ambiguous() []*Mapping {
	var out []*Mapping
	for _, m := range s.Mappings {
		if m.Ambiguous() {
			out = append(out, m)
		}
	}
	return out
}

// ByName returns the member with the given name, or nil.
func (s *Set) ByName(name string) *Mapping {
	for _, m := range s.Mappings {
		if m.Name == name {
			return m
		}
	}
	return nil
}
