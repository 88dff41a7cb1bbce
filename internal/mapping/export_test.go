package mapping

import (
	"fmt"

	"muse/internal/deps"
)

// Closing a mapping under the source's referential constraints is
// test-only API: cliogen closes the mappings it generates itself.

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
