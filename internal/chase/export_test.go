package chase

import (
	"muse/internal/instance"
	"muse/internal/mapping"
)

// Assignments returns all satisfying assignments of m's for clause
// over src (copied maps, safe to retain).
func Assignments(src *instance.Instance, m *mapping.Mapping) ([]map[string]*instance.Tuple, error) {
	info, err := m.Analyze()
	if err != nil {
		return nil, err
	}
	e := forClause(src, m, info)
	var out []map[string]*instance.Tuple
	err = e.each(func(a assignment) error {
		cp := make(map[string]*instance.Tuple, len(a))
		for i, g := range m.For {
			cp[g.Var] = a[i]
		}
		out = append(out, cp)
		return nil
	})
	return out, err
}
