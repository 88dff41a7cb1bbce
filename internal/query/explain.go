package query

import (
	"fmt"
	"sort"
	"strings"
)

// Plan is the exported view of a planned query, for EXPLAIN-style
// inspection. Obtain one with Query.PlanWith; Eval computes the same
// plan internally (the planner is deterministic, so the two always
// agree for a given query, store and instance). Eval skips planning
// when refute proves the query empty (refute.go), so the plan shown
// applies only to queries that are not refuted.
type Plan struct {
	p planned
}

// PlanWith validates the query and plans it against the store's
// statistics, exactly as Eval would. The store must
// index the instance the query will run over — statistics drive both
// the atom order and the tier choices. Eval skips planning when refute
// proves the query empty (refute.go), so the plan shown applies only
// to queries that are not refuted.
func (q *Query) PlanWith(store *IndexStore) (*Plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return &Plan{p: q.plan(store)}, nil
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
