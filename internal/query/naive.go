package query

import (
	"muse/internal/instance"
	"muse/internal/nr"
)

// EvalNaive is the reference evaluator the planned Eval is tested
// against: a nested-loop scan in the given atom order, reading values
// by label (Tuple.Get), binding value variables in a by-name map, and
// re-checking every inequality whose sides are bound on every bind.
// Nested atoms scan the occurrence their parent's set field
// references. It returns every match, with no limit, budget or
// context, and shares none of Eval's refutation, plan or compiled
// state, so the planned-vs-naive differentials compare independent
// code.
func (q *Query) EvalNaive(in *instance.Instance) ([]Match, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	n := &naiveState{
		q: q, in: in,
		types:  q.resolveTypes(),
		parent: make([]int, len(q.Atoms)),
		values: make(map[string]instance.Value),
		tuples: make([]*instance.Tuple, len(q.Atoms)),
	}
	pos := make(map[string]int, len(q.Atoms))
	for i, a := range q.Atoms {
		pos[a.Var] = i
		n.parent[i] = -1
		if a.Parent != "" {
			n.parent[i] = pos[a.Parent]
		}
	}
	n.search(0)
	return n.out, nil
}

type naiveState struct {
	q      *Query
	in     *instance.Instance
	types  []*nr.SetType
	parent []int
	values map[string]instance.Value
	bound  []string
	tuples []*instance.Tuple
	out    []Match
}

func (n *naiveState) search(i int) {
	if i == len(n.q.Atoms) {
		m := Match{
			Tuples: append([]*instance.Tuple(nil), n.tuples...),
			Values: make(map[string]instance.Value, len(n.values)),
		}
		for k, v := range n.values {
			m.Values[k] = v
		}
		n.out = append(n.out, m)
		return
	}
	a := &n.q.Atoms[i]
	var cands []*instance.Tuple
	if a.Parent == "" {
		cands = n.in.Top(n.types[i]).View()
	} else if ref, _ := n.tuples[n.parent[i]].Get(a.Field).(*instance.SetRef); ref != nil {
		if occ := n.in.Set(ref); occ != nil {
			cands = occ.View()
		}
	}
	for _, t := range cands {
		mark := len(n.bound)
		if n.bind(a, t) {
			n.tuples[i] = t
			n.search(i + 1)
		}
		n.unbindTo(mark)
	}
}

// bind matches atom a against tuple t: pins must agree, bound
// variables must agree, unbound ones are bound, and no inequality of
// the query may have both sides bound to equal values.
func (n *naiveState) bind(a *Atom, t *instance.Tuple) bool {
	for attr, want := range a.Pin {
		if !instance.SameValue(t.Get(attr), want) {
			return false
		}
	}
	for attr, vvar := range a.Bind {
		v := t.Get(attr)
		if v == nil {
			return false
		}
		if prev, ok := n.values[vvar]; ok {
			if !instance.SameValue(prev, v) {
				return false
			}
			continue
		}
		n.values[vvar] = v
		n.bound = append(n.bound, vvar)
	}
	for _, ne := range n.q.Neq {
		l, lok := n.values[ne[0]]
		r, rok := n.values[ne[1]]
		if lok && rok && instance.SameValue(l, r) {
			return false
		}
	}
	return true
}

func (n *naiveState) unbindTo(mark int) {
	for _, vvar := range n.bound[mark:] {
		delete(n.values, vvar)
	}
	n.bound = n.bound[:mark]
}
