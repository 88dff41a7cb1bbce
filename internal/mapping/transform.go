package mapping

import (
	"fmt"
	"slices"

	"muse/internal/deps"
	"muse/internal/nr"
)

// Poss returns poss(m, SK): the candidate grouping attributes for any
// grouping function of m — every atomic attribute of every record
// bound in the for clause, as "var.attr" expressions in generator
// order (Sec. III, Step 2).
func (m *Mapping) Poss() []Expr {
	info := m.MustAnalyze()
	var out []Expr
	for _, v := range info.SrcOrder {
		for _, a := range info.SrcVars[v].Atoms {
			out = append(out, E(v, a))
		}
	}
	return out
}

// WithSK returns a copy of m in which the grouping function named fn
// has the given arguments (Sec. III: the mappings d1, d2 used in a
// probe differ from m exactly this way). It panics if m has no
// grouping assignment named fn.
//
// Grouping arguments do not affect generator resolution, so when m has
// already been analyzed the copy inherits the resolution (with the new
// arguments validated against it directly) instead of re-resolving —
// the wizards derive hundreds of WithSK variants per design session.
func (m *Mapping) WithSK(fn string, args []Expr) *Mapping {
	c := m.Clone()
	for i := range c.SKs {
		if c.SKs[i].SK.Fn != fn {
			continue
		}
		c.SKs[i].SK.Args = append([]Expr{}, args...)
		c.invalidate()
		if info := m.info.Load(); info != nil {
			ok := true
			for _, arg := range args {
				if checkAtom(c.Name, info.SrcVars, arg, "grouping argument") != nil {
					ok = false
					break
				}
			}
			if ok {
				c.info.Store(&Info{M: c,
					SrcVars: info.SrcVars, TgtVars: info.TgtVars,
					SrcOrder: info.SrcOrder, TgtOrder: info.TgtOrder})
			}
		}
		return c
	}
	panic(fmt.Sprintf("mapping %s: no grouping function %s", m.Name, fn))
}

// AddDefaultSKs installs the default grouping function for every
// target set field populated by the mapping that lacks an explicit
// assignment. The default is the G1 semantics of mapping generation
// tools: group by all atomic attributes of all for-clause records
// (Sec. III: "the default grouping function ... consists of only
// atomic attributes"). Top-level sets get no grouping function.
func (m *Mapping) AddDefaultSKs() error {
	info, err := m.Analyze()
	if err != nil {
		return err
	}
	all := m.Poss()
	for _, v := range info.TgtOrder {
		st := info.TgtVars[v]
		for _, f := range st.SetFields {
			set := E(v, f)
			if m.SKForSet(set) != nil {
				continue
			}
			child := m.Tgt.ByPath(append(st.Path.Clone(), nr.ParsePath(f)...))
			if child == nil {
				return fmt.Errorf("mapping %s: cannot resolve target set %s.%s", m.Name, st.Path, f)
			}
			m.SKs = append(m.SKs, SKAssign{Set: set, SK: SKTerm{Fn: child.SKName(), Args: append([]Expr{}, all...)}})
		}
	}
	m.invalidate()
	_, err = m.Analyze()
	return err
}

// Interpretations enumerates the unambiguous mappings encoded by an
// ambiguous mapping: one per combination of or-group alternatives, in
// lexicographic order of alternative indexes. For an unambiguous
// mapping it returns a single clone.
func (m *Mapping) Interpretations() []*Mapping {
	if !m.Ambiguous() {
		return []*Mapping{m.Clone()}
	}
	choice := make([]int, len(m.OrGroups))
	var out []*Mapping
	for {
		out = append(out, m.Interpretation(choice))
		// Advance the mixed-radix counter.
		i := len(choice) - 1
		for ; i >= 0; i-- {
			choice[i]++
			if choice[i] < len(m.OrGroups[i].Alts) {
				break
			}
			choice[i] = 0
		}
		if i < 0 {
			return out
		}
	}
}

// Interpretation returns the unambiguous mapping obtained by selecting
// alternative choice[i] of or-group i (Sec. IV: "the designer's
// actions ... translate into a unique interpretation").
func (m *Mapping) Interpretation(choice []int) *Mapping {
	if len(choice) != len(m.OrGroups) {
		panic(fmt.Sprintf("mapping %s: %d choices for %d or-groups", m.Name, len(choice), len(m.OrGroups)))
	}
	c := m.Clone()
	for i, g := range m.OrGroups {
		if choice[i] < 0 || choice[i] >= len(g.Alts) {
			panic(fmt.Sprintf("mapping %s: choice %d out of range for or-group %s", m.Name, choice[i], g.Target))
		}
		c.Where = append(c.Where, Eq{L: g.Alts[choice[i]], R: g.Target})
	}
	c.OrGroups = nil
	c.Name = m.Name + interpSuffix(choice)
	c.invalidate()
	return c
}

func interpSuffix(choice []int) string {
	s := "["
	for i, c := range choice {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprint(c)
	}
	return s + "]"
}

// MultiInterpretation returns the set of unambiguous mappings selected
// by choosing, for each or-group, a non-empty subset of alternatives
// (Sec. IV "More options": a designer may choose a subset of the
// mappings as the desired interpretation). The result is one mapping
// per combination of selected alternatives.
func (m *Mapping) MultiInterpretation(selected [][]int) ([]*Mapping, error) {
	if len(selected) != len(m.OrGroups) {
		return nil, fmt.Errorf("mapping %s: %d selections for %d or-groups", m.Name, len(selected), len(m.OrGroups))
	}
	for i, s := range selected {
		if len(s) == 0 {
			return nil, fmt.Errorf("mapping %s: empty selection for or-group %s", m.Name, m.OrGroups[i].Target)
		}
		for _, c := range s {
			if c < 0 || c >= len(m.OrGroups[i].Alts) {
				return nil, fmt.Errorf("mapping %s: selection %d out of range for or-group %s", m.Name, c, m.OrGroups[i].Target)
			}
		}
	}
	idx := make([]int, len(selected))
	var out []*Mapping
	for {
		choice := make([]int, len(selected))
		for i := range selected {
			choice[i] = selected[i][idx[i]]
		}
		out = append(out, m.Interpretation(choice))
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(selected[i]) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return out, nil
		}
	}
}

// FeedEqs returns the equalities between source expressions that the
// where clause implies: when two or more where-equalities feed one
// class of target atoms (the classes of the exists-satisfy clause),
// one equality from the first source expression to each later,
// different one, in where-clause order. The chase fires an assignment
// only when these equalities hold, so for its fired assignments they
// are as binding as the satisfy clause.
func (m *Mapping) FeedEqs() []Eq {
	tgt := NewClasses(m.ExistsSat)
	roots := make([]Expr, len(m.Where))
	var eqs []Eq
	for i, q := range m.Where {
		roots[i] = tgt.Find(q.R)
		// The class's first feed is its earliest where-equality.
		if j := slices.Index(roots[:i], roots[i]); j >= 0 {
			if eq := (Eq{L: m.Where[j].L, R: q.L}); eq.L != eq.R && !slices.Contains(eqs, eq) {
				eqs = append(eqs, eq)
			}
		}
	}
	return eqs
}

// Classes is a union-find over attribute expressions: the classes of
// expressions a list of equalities (a satisfy clause) forces to carry
// the same value. Find compresses paths, so a Classes is not safe for
// concurrent use.
type Classes struct {
	parent map[Expr]Expr
}

// NewClasses partitions the expressions of eqs into the classes the
// equalities induce, up to reflexivity and transitivity.
func NewClasses(eqs []Eq) *Classes {
	c := &Classes{parent: make(map[Expr]Expr)}
	for _, q := range eqs {
		if a, b := c.Find(q.L), c.Find(q.R); a != b {
			c.parent[a] = b
		}
	}
	return c
}

// Find returns the representative of x's class; an expression no
// equality mentions is its own class.
func (c *Classes) Find(x Expr) Expr {
	p, ok := c.parent[x]
	if !ok || p == x {
		return x
	}
	root := c.Find(p)
	c.parent[x] = root
	return root
}

// Joined reports whether the equalities join variable v to variable w
// on every attribute pair of the referential constraint ref:
// v.FromAttrs[i] and w.ToAttrs[i] share a class for each i.
func (c *Classes) Joined(v, w string, ref deps.Ref) bool {
	for i := range ref.FromAttrs {
		if c.Find(E(v, ref.FromAttrs[i])) != c.Find(E(w, ref.ToAttrs[i])) {
			return false
		}
	}
	return true
}
