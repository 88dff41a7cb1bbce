package core

import (
	"fmt"
	"strings"

	"muse/internal/chase"
	"muse/internal/deps"
	"muse/internal/homo"
	"muse/internal/instance"
	"muse/internal/mapping"
)

// This file implements the "More options" of Sec. IV: choosing between
// inner and outer join semantics. The for clause of a mapping is an
// inner join — only source combinations where every variable matches
// are exchanged. Each ref-closed proper subset of the for-variables
// induces an *outer variant*: the projection of the mapping onto that
// subset, which additionally exchanges the unmatched combinations
// (Fig. 1's m1 and m3 are exactly the outer variants of m2). Following
// Yan et al., the wizard differentiates the semantics with a dangling
// example: data matching the variant but not the full join.

// JoinVariant is one outer option of a mapping.
type JoinVariant struct {
	// Keep lists the retained for-variables.
	Keep []string
	// Mapping is the projection of the original onto Keep.
	Mapping *mapping.Mapping
}

// JoinQuestion asks whether unmatched data (matching the variant but
// not the full join) should be exchanged too.
type JoinQuestion struct {
	Mapping *mapping.Mapping
	Variant JoinVariant
	// Source is the dangling example.
	Source *instance.Instance
	Real   bool
	// WithVariant includes the unmatched data in the target;
	// WithoutVariant is the inner-join-only result.
	WithVariant, WithoutVariant *instance.Instance
}

// JoinDesigner answers join questions: true keeps the outer variant.
type JoinDesigner interface {
	ChooseJoin(q *JoinQuestion) (bool, error)
}

// JoinVariants enumerates the outer variants of m: for each
// for-variable, the projection onto the ref-closure of that variable
// under the source constraints (deduplicated, proper subsets only, and
// only when the projection still exports something). For Fig. 1's m2
// the variants are exactly m1 (the companies alone) and m3 (the
// employees alone).
func JoinVariants(m *mapping.Mapping, src *deps.Set) ([]JoinVariant, error) {
	info, err := m.Analyze()
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var out []JoinVariant
	for _, v := range info.SrcOrder {
		keep := refClosure(m, info, src, v)
		if len(keep) >= len(info.SrcOrder) {
			continue // the full join, not a variant
		}
		key := strings.Join(keep, ",")
		if seen[key] {
			continue
		}
		seen[key] = true
		proj, err := Project(m, keep)
		if err != nil {
			continue // projection exports nothing useful
		}
		out = append(out, JoinVariant{Keep: keep, Mapping: proj})
	}
	return out, nil
}

// refClosure returns the smallest generator subset containing v that
// is closed under parent nesting and under the source referential
// constraints: every needed variable's refs must keep a witness, found
// through the satisfy equalities. The result follows generator order.
func refClosure(m *mapping.Mapping, info *mapping.Info, src *deps.Set, v string) []string {
	need := map[string]bool{v: true}
	eq := mapping.NewClasses(m.ForSat)
	for changed := true; changed; {
		changed = false
		for _, g := range m.For {
			if !need[g.Var] {
				continue
			}
			if g.Parent != "" && !need[g.Parent] {
				need[g.Parent] = true
				changed = true
			}
			if src == nil {
				continue
			}
			for _, r := range src.RefsOf(info.SrcVars[g.Var]) {
				if hasWitness(info, eq, need, g.Var, r) {
					continue
				}
				// Add the first witness of this constraint.
				for _, w := range info.SrcOrder {
					if need[w] || !info.SrcVars[w].Path.Equal(r.ToSet) {
						continue
					}
					if eq.Joined(g.Var, w, r) {
						need[w] = true
						changed = true
						break
					}
				}
			}
		}
	}
	var keep []string
	for _, g := range m.For {
		if need[g.Var] {
			keep = append(keep, g.Var)
		}
	}
	return keep
}

// hasWitness reports whether some already-needed variable witnesses
// v's constraint r.
func hasWitness(info *mapping.Info, eq *mapping.Classes, need map[string]bool, v string, r deps.Ref) bool {
	for w := range need {
		if w != v && info.SrcVars[w].Path.Equal(r.ToSet) && eq.Joined(v, w, r) {
			return true
		}
	}
	return false
}

// Project returns the mapping restricted to the keep variables:
// generators, satisfy equalities and where correspondences within the
// set; grouping arguments referencing dropped variables are removed.
// It errors when the projection would export nothing.
func Project(m *mapping.Mapping, keep []string) (*mapping.Mapping, error) {
	in := make(map[string]bool, len(keep))
	for _, v := range keep {
		in[v] = true
	}
	p := &mapping.Mapping{
		Name: m.Name + "~" + strings.Join(keep, "+"),
		Src:  m.Src, Tgt: m.Tgt,
	}
	for _, g := range m.For {
		if in[g.Var] {
			p.For = append(p.For, g)
		}
	}
	for _, q := range m.ForSat {
		if in[q.L.Var] && in[q.R.Var] {
			p.ForSat = append(p.ForSat, q)
		}
	}
	for _, q := range m.Where {
		if in[q.L.Var] {
			p.Where = append(p.Where, q)
		}
	}
	for _, g := range m.OrGroups {
		var alts []mapping.Expr
		for _, a := range g.Alts {
			if in[a.Var] {
				alts = append(alts, a)
			}
		}
		switch {
		case len(alts) >= 2:
			p.OrGroups = append(p.OrGroups, mapping.OrGroup{Target: g.Target, Alts: alts})
		case len(alts) == 1:
			p.Where = append(p.Where, mapping.Eq{L: alts[0], R: g.Target})
		}
	}
	if len(p.Where)+len(p.OrGroups) == 0 {
		return nil, fmt.Errorf("core: projection of %s onto {%s} exports nothing", m.Name, strings.Join(keep, ","))
	}
	// Prune the exists clause to the target variables that still
	// receive content, closed under nesting parents. Projecting Fig. 1's
	// m2 onto {c} and {e} yields exactly m1 and m3 this way.
	keepTgt := make(map[string]bool)
	for _, q := range p.Where {
		keepTgt[q.R.Var] = true
	}
	for _, g := range p.OrGroups {
		keepTgt[g.Target.Var] = true
	}
	for changed := true; changed; {
		changed = false
		for _, g := range m.Exists {
			if keepTgt[g.Var] && g.Parent != "" && !keepTgt[g.Parent] {
				keepTgt[g.Parent] = true
				changed = true
			}
		}
	}
	for _, g := range m.Exists {
		if keepTgt[g.Var] {
			p.Exists = append(p.Exists, g)
		}
	}
	for _, q := range m.ExistsSat {
		if keepTgt[q.L.Var] && keepTgt[q.R.Var] {
			p.ExistsSat = append(p.ExistsSat, q)
		}
	}
	for _, a := range m.SKs {
		if !keepTgt[a.Set.Var] {
			continue
		}
		var args []mapping.Expr
		for _, e := range a.SK.Args {
			if in[e.Var] {
				args = append(args, e)
			}
		}
		p.SKs = append(p.SKs, mapping.SKAssign{Set: a.Set, SK: mapping.SKTerm{Fn: a.SK.Fn, Args: args}})
	}
	if _, err := p.Analyze(); err != nil {
		return nil, err
	}
	return p, nil
}

// DesignJoins asks, for every outer variant of the (unambiguous)
// mapping m, whether unmatched data should be exchanged, and returns m
// plus the selected variants.
func (w *DisambiguationWizard) DesignJoins(m *mapping.Mapping, d JoinDesigner) ([]*mapping.Mapping, error) {
	if m.Ambiguous() {
		return nil, fmt.Errorf("core: disambiguate %s before choosing join semantics", m.Name)
	}
	variants, err := JoinVariants(m, w.SrcDeps)
	if err != nil {
		return nil, err
	}
	out := []*mapping.Mapping{m.Clone()}
	for _, v := range variants {
		q, err := w.joinQuestion(m, v)
		if err != nil {
			return nil, err
		}
		if q == nil {
			continue // the variant is indistinguishable on any example
		}
		includeOuter, err := d.ChooseJoin(q)
		if err != nil {
			return nil, err
		}
		if includeOuter {
			out = append(out, v.Mapping)
		}
	}
	return out, nil
}

// joinQuestion builds the dangling example for one variant: data
// matching the variant's tableau with no extension to the full join.
func (w *DisambiguationWizard) joinQuestion(m *mapping.Mapping, v JoinVariant) (*JoinQuestion, error) {
	ie, real := w.danglingExample(m, v)
	if w.SrcDeps != nil {
		if viol := w.SrcDeps.Check(ie); len(viol) > 0 {
			return nil, fmt.Errorf("core: join example for %s is invalid: %v", v.Mapping.Name, viol[0])
		}
	}
	with, err := chase.ChaseCtx(w.context(), ie, w.Obs, m, v.Mapping)
	if err != nil {
		return nil, err
	}
	without, err := chase.ChaseCtx(w.context(), ie, w.Obs, m)
	if err != nil {
		return nil, err
	}
	if homo.Isomorphic(with, without) {
		return nil, nil
	}
	return &JoinQuestion{
		Mapping: m, Variant: v, Source: ie, Real: real,
		WithVariant: with, WithoutVariant: without,
	}, nil
}

// danglingExample retrieves the first real assignment of the variant
// that does not extend to the full mapping (danglingRetrieval), falling
// back to the variant's canonical tableau, which trivially lacks the
// other relations.
func (w *DisambiguationWizard) danglingExample(m *mapping.Mapping, v JoinVariant) (*instance.Instance, bool) {
	tb := compileTableau(v.Mapping, w.SrcDeps, 1)
	if w.Real != nil {
		r := danglingRetrieval{env: &w.Env, variant: tb, full: compileTableau(m, w.SrcDeps, 1)}
		if w.retrieve(w.context(), &r) {
			return tb.fromRows(r.row), true
		}
	}
	return tb.synthetic(), false
}
