package mapping

import (
	"fmt"

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

// CloseUnderRefs extends the for clause (and its satisfy equalities)
// so the mapping is closed under the given source referential
// constraints (Sec. II: "a mapping that is not closed under
// referential constraints can always be transformed into an
// equivalent one ... by chasing"). Constraints must be acyclic; the
// chase is capped and an error is returned if it does not terminate.
func (m *Mapping) CloseUnderRefs(src *deps.Set) error {
	info, err := m.Analyze()
	if err != nil {
		return err
	}
	fresh := 0
	// Work on growing copies of the clauses.
	for round := 0; ; round++ {
		// Acyclic constraint sets close after at most one round per
		// stratum; far fewer than this cap.
		if round > 50 {
			return fmt.Errorf("mapping %s: referential-constraint chase did not terminate (cyclic constraints?)", m.Name)
		}
		applied := false
		for _, v := range append([]string{}, info.SrcOrder...) {
			st := info.SrcVars[v]
			for _, r := range src.RefsOf(st) {
				if m.refSatisfied(info, v, r) {
					continue
				}
				to := m.Src.ByPath(r.ToSet)
				if to == nil {
					return fmt.Errorf("mapping %s: constraint %s references unknown set %s", m.Name, r.Name, r.ToSet)
				}
				if to.Parent != nil {
					return fmt.Errorf("mapping %s: constraint %s targets nested set %s; closing over nested targets is not supported", m.Name, r.Name, r.ToSet)
				}
				fresh++
				w := fmt.Sprintf("_%s%d", r.Name, fresh)
				for info.VarSet(w) != nil {
					fresh++
					w = fmt.Sprintf("_%s%d", r.Name, fresh)
				}
				m.For = append(m.For, FromRoot(w, r.ToSet.String()))
				for i := range r.FromAttrs {
					m.ForSat = append(m.ForSat, Eq{L: E(v, r.FromAttrs[i]), R: E(w, r.ToAttrs[i])})
				}
				m.invalidate()
				info, err = m.Analyze()
				if err != nil {
					return err
				}
				applied = true
			}
		}
		if !applied {
			return nil
		}
	}
}

// ClosedUnderRefs reports whether every for-variable's referential
// constraints are witnessed inside the for clause.
func (m *Mapping) ClosedUnderRefs(src *deps.Set) bool {
	info, err := m.Analyze()
	if err != nil {
		return false
	}
	for _, v := range info.SrcOrder {
		for _, r := range src.RefsOf(info.SrcVars[v]) {
			if !m.refSatisfied(info, v, r) {
				return false
			}
		}
	}
	return true
}

// refSatisfied reports whether some for-variable w over r.ToSet is
// joined to v on the constraint's attribute pairs via the satisfy
// equalities (checked up to the reflexive-transitive closure of the
// equalities).
func (m *Mapping) refSatisfied(info *Info, v string, r deps.Ref) bool {
	eq := NewClasses(m.ForSat)
	for _, w := range info.SrcOrder {
		if info.SrcVars[w].Path.Equal(r.ToSet) && eq.Joined(v, w, r) {
			return true
		}
	}
	return false
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
