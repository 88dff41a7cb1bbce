package core

import (
	"slices"

	"muse/internal/instance"
	"muse/internal/mapping"
)

// This file holds the brute-force reference for the table scans of
// assign.go and retrieve.go: it shares no enumeration, table or scan
// code with them.

// bruteRows enumerates the assignments of m's for clause over in by
// nested loops over whole sets and occurrences in set order, checking
// each satisfy equality once both its sides are bound, and returns
// those that set every atom, in that order.
func bruteRows(m *mapping.Mapping, in *instance.Instance) [][]*instance.Tuple {
	info := m.MustAnalyze()
	pos := make(map[string]int, len(m.For))
	for i, g := range m.For {
		pos[g.Var] = i
	}
	var out [][]*instance.Tuple
	row := make([]*instance.Tuple, len(m.For))
	var bind func(i int)
	bind = func(i int) {
		if i == len(m.For) {
			for k, g := range m.For {
				for _, a := range info.SrcVars[g.Var].Atoms {
					if row[k].Get(a) == nil {
						return
					}
				}
			}
			out = append(out, slices.Clone(row))
			return
		}
		g := m.For[i]
		var pool []*instance.Tuple
		if g.Parent == "" {
			pool = in.Top(info.SrcVars[g.Var]).View()
		} else if ref, _ := row[pos[g.Parent]].Get(g.Field).(*instance.SetRef); ref != nil {
			if occ := in.Set(ref); occ != nil {
				pool = occ.View()
			}
		}
	next:
		for _, t := range pool {
			row[i] = t
			for _, q := range m.ForSat {
				if max(pos[q.L.Var], pos[q.R.Var]) != i {
					continue
				}
				l, r := row[pos[q.L.Var]].Get(q.L.Attr), row[pos[q.R.Var]].Get(q.R.Attr)
				if l == nil || r == nil || !instance.SameValue(l, r) {
					continue next
				}
			}
			bind(i + 1)
		}
	}
	bind(0)
	return out
}

// bruteWitness returns the witness of a retrieval on tb's current
// partition whose slot pairs neq (flattened) must differ, by testing
// rows of bruteRows in the witness order: for one copy the first row
// that realizes the partition; for two the valid pair whose later row
// is least, then whose earlier row is least, copy 1 taking the earlier
// row when both fit. Nil when there is none.
func bruteWitness(tb *tableau, neq []int32, rows [][]*instance.Tuple) [][]*instance.Tuple {
	var atoms []mapping.Expr
	for _, v := range tb.info.SrcOrder {
		for _, a := range tb.info.SrcVars[v].Atoms {
			atoms = append(atoms, mapping.E(v, a))
		}
	}
	pos := make(map[string]int)
	for i, g := range tb.m.For {
		pos[g.Var] = i
	}
	valid := func(cand [][]*instance.Tuple) bool {
		val := func(x int32) instance.Value {
			e := atoms[x%tb.width]
			return cand[x/tb.width][pos[e.Var]].Get(e.Attr)
		}
		class := make(map[int32]instance.Value)
		for x := range int32(len(tb.parent)) {
			r := tb.find(x)
			if v, ok := class[r]; !ok {
				class[r] = val(x)
			} else if !instance.SameValue(v, val(x)) {
				return false
			}
		}
		for k := 0; k < len(neq); k += 2 {
			if instance.SameValue(val(neq[k]), val(neq[k+1])) {
				return false
			}
		}
		return true
	}
	for b := range rows {
		if tb.copies == 1 {
			if valid([][]*instance.Tuple{rows[b]}) {
				return [][]*instance.Tuple{rows[b]}
			}
			continue
		}
		for a := range b {
			for _, cand := range [][][]*instance.Tuple{{rows[a], rows[b]}, {rows[b], rows[a]}} {
				if valid(cand) {
					return cand
				}
			}
		}
	}
	return nil
}

// sameRows reports whether two witnesses hold the same tuples.
func sameRows(a, b [][]*instance.Tuple) bool {
	return slices.EqualFunc(a, b, func(x, y []*instance.Tuple) bool { return slices.Equal(x, y) })
}
