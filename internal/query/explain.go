package query

import (
	"fmt"
	"sort"
	"strings"
)

// Plan is the exported view of a planned query, for EXPLAIN-style
// inspection: Eval attaches its Explain to the query.eval span of a
// trace that asks for detail. The planner is deterministic, so a plan
// is a function of the query, store and instance. A query a Decider
// settles is never planned (FirstDecided).
type Plan struct {
	p planned
}

// Explain renders the plan as one line per execution position:
//
//  0. e in CompDB.Emps [bound-composite] index(Name,Proj) cost=1.5 (atom 2)
//
// Each line shows the position, the tuple variable, the set accessed
// (parent.field for nested atoms), the access tier, the index
// attribute list when one is probed, the planner's candidate-set
// estimate at placement time, the atom's position in the original
// query, and any inequality pairs checked at this position.
func (p *Plan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan: %d atoms, %d costed\n", len(p.p.plans), p.p.costed)
	for pos, ap := range p.p.plans {
		a := p.p.q.Atoms[pos]
		src := a.Set.String()
		if a.Parent != "" {
			src = a.Parent + "." + a.Field
		}
		fmt.Fprintf(&b, "  %d. %s in %s [%s]", pos, a.Var, src, tierNames[ap.tier])
		if len(ap.idxAttrs) > 0 {
			fmt.Fprintf(&b, " index(%s)", strings.Join(ap.idxAttrs, ","))
		}
		if len(a.Pin) > 0 {
			pins := make([]string, 0, len(a.Pin))
			for attr := range a.Pin {
				pins = append(pins, attr)
			}
			sort.Strings(pins)
			fmt.Fprintf(&b, " pin(%s)", strings.Join(pins, ","))
		}
		fmt.Fprintf(&b, " cost=%.3g (atom %d)", ap.cost, p.p.back[pos])
		for _, ne := range ap.neq {
			fmt.Fprintf(&b, " %s!=%s", ne[0], ne[1])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
