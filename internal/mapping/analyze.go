package mapping

import (
	"fmt"

	"muse/internal/nr"
)

// Info is the result of resolving a mapping against its schemas: the
// set type of every variable plus side lookups the chase and the
// wizards need.
type Info struct {
	M *Mapping
	// SrcVars and TgtVars map variable names to the set types their
	// generators range over.
	SrcVars map[string]*nr.SetType
	TgtVars map[string]*nr.SetType
	// SrcOrder and TgtOrder preserve generator declaration order.
	SrcOrder []string
	TgtOrder []string
}

// VarSet returns the set type of a variable from either side, or nil.
func (in *Info) VarSet(v string) *nr.SetType {
	if st, ok := in.SrcVars[v]; ok {
		return st
	}
	return in.TgtVars[v]
}

// Analyze resolves and validates the mapping, caching the result. It
// checks that: variables are uniquely named and bound before use;
// generators reference existing (top-level or parent-nested) sets;
// expressions reference existing atoms; equalities stay on the proper
// side of the mapping; or-group alternatives are source expressions
// over one target element; and grouping assignments name target set
// fields with source-expression arguments.
// Analyze is idempotent and safe for concurrent use: the first call
// computes the Info, later calls return the memoized result.
func (m *Mapping) Analyze() (*Info, error) {
	if in := m.info.Load(); in != nil {
		return in, nil
	}
	info := &Info{
		M:       m,
		SrcVars: make(map[string]*nr.SetType, len(m.For)),
		TgtVars: make(map[string]*nr.SetType, len(m.Exists)),
	}
	if err := resolveGens(m.Name, m.Src, m.For, info.SrcVars, &info.SrcOrder, nil); err != nil {
		return nil, err
	}
	if err := resolveGens(m.Name, m.Tgt, m.Exists, info.TgtVars, &info.TgtOrder, info.SrcVars); err != nil {
		return nil, err
	}
	// Source satisfy: both sides source atoms.
	for _, e := range m.ForSat {
		for _, x := range []Expr{e.L, e.R} {
			if err := checkAtom(m.Name, info.SrcVars, x, "for-satisfy"); err != nil {
				return nil, err
			}
		}
	}
	// Target satisfy: both sides target atoms.
	for _, e := range m.ExistsSat {
		for _, x := range []Expr{e.L, e.R} {
			if err := checkAtom(m.Name, info.TgtVars, x, "exists-satisfy"); err != nil {
				return nil, err
			}
		}
	}
	// Where: L source atom, R target atom.
	for _, e := range m.Where {
		if err := checkAtom(m.Name, info.SrcVars, e.L, "where (source side)"); err != nil {
			return nil, err
		}
		if err := checkAtom(m.Name, info.TgtVars, e.R, "where (target side)"); err != nil {
			return nil, err
		}
	}
	// Or-groups: target element with ≥2 source alternatives.
	for _, g := range m.OrGroups {
		if err := checkAtom(m.Name, info.TgtVars, g.Target, "or-group target"); err != nil {
			return nil, err
		}
		if len(g.Alts) < 2 {
			return nil, fmt.Errorf("mapping %s: or-group for %s has %d alternative(s), need at least 2", m.Name, g.Target, len(g.Alts))
		}
		for _, a := range g.Alts {
			if err := checkAtom(m.Name, info.SrcVars, a, "or-group alternative"); err != nil {
				return nil, err
			}
		}
	}
	// Grouping assignments.
	seenSK := make(map[string]bool)
	for _, a := range m.SKs {
		st, ok := info.TgtVars[a.Set.Var]
		if !ok {
			return nil, fmt.Errorf("mapping %s: grouping assignment %s: %q is not an exists variable", m.Name, a, a.Set.Var)
		}
		if !st.HasSetField(a.Set.Attr) {
			return nil, fmt.Errorf("mapping %s: grouping assignment %s: %s has no set field %q", m.Name, a, st, a.Set.Attr)
		}
		if seenSK[a.Set.String()] {
			return nil, fmt.Errorf("mapping %s: duplicate grouping assignment for %s", m.Name, a.Set)
		}
		seenSK[a.Set.String()] = true
		for _, arg := range a.SK.Args {
			if err := checkAtom(m.Name, info.SrcVars, arg, "grouping argument"); err != nil {
				return nil, err
			}
		}
	}
	// Racing analyzers compute identical Infos (analysis is a pure
	// function of the mapping); keep the first one stored so every
	// caller sees the same pointer afterwards.
	if !m.info.CompareAndSwap(nil, info) {
		if in := m.info.Load(); in != nil {
			return in, nil
		}
	}
	return info, nil
}

// MustAnalyze is Analyze, panicking on error.
func (m *Mapping) MustAnalyze() *Info {
	info, err := m.Analyze()
	if err != nil {
		panic(err)
	}
	return info
}

// invalidate drops the cached resolution after a structural edit.
func (m *Mapping) invalidate() { m.info.Store(nil) }

func resolveGens(name string, cat *nr.Catalog, gens []Gen, vars map[string]*nr.SetType, order *[]string, alsoBound map[string]*nr.SetType) error {
	for _, g := range gens {
		if g.Var == "" {
			return fmt.Errorf("mapping %s: generator with empty variable", name)
		}
		if _, dup := vars[g.Var]; dup {
			return fmt.Errorf("mapping %s: variable %q bound twice", name, g.Var)
		}
		if alsoBound != nil {
			if _, dup := alsoBound[g.Var]; dup {
				return fmt.Errorf("mapping %s: variable %q bound on both sides", name, g.Var)
			}
		}
		var st *nr.SetType
		switch {
		case g.Root != nil:
			st = cat.ByPath(g.Root)
			if st == nil {
				return fmt.Errorf("mapping %s: generator %s: schema %s has no set %q", name, g.Var, cat.Schema.Name, g.Root)
			}
			if st.Parent != nil {
				return fmt.Errorf("mapping %s: generator %s: %q is nested; bind it through its parent variable", name, g.Var, g.Root)
			}
		case g.Parent != "":
			parent, ok := vars[g.Parent]
			if !ok {
				return fmt.Errorf("mapping %s: generator %s: parent variable %q not bound earlier", name, g.Var, g.Parent)
			}
			if !parent.HasSetField(g.Field) {
				return fmt.Errorf("mapping %s: generator %s: %s has no set field %q", name, g.Var, parent, g.Field)
			}
			st = parent.Child(g.Field)
			if st == nil {
				return fmt.Errorf("mapping %s: generator %s: cannot resolve nested set %s.%s", name, g.Var, parent.Path, g.Field)
			}
		default:
			return fmt.Errorf("mapping %s: generator %s has neither a root set nor a parent", name, g.Var)
		}
		vars[g.Var] = st
		*order = append(*order, g.Var)
	}
	return nil
}

func checkAtom(name string, vars map[string]*nr.SetType, e Expr, where string) error {
	st, ok := vars[e.Var]
	if !ok {
		return fmt.Errorf("mapping %s: %s: variable %q not bound on this side", name, where, e.Var)
	}
	if !st.HasAtom(e.Attr) {
		return fmt.Errorf("mapping %s: %s: %s has no atomic attribute %q", name, where, st, e.Attr)
	}
	return nil
}
