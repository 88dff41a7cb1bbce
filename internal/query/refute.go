package query

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"muse/internal/nr"
)

// This file decides, before planning, that a query has no match
// because one of its inequalities can never hold. Two top-level atoms
// over one set that bind equal values on an attribute list the set
// holds unique must match the same tuple, so every attribute both atoms
// bind carries one value. Muse-G's two-copy probes (the Q_Ie of Sec.
// III-A) hit this whenever both copies agree on a source key: the
// probed inequality is then forced false, and the search would only
// learn it by enumerating the whole copy-1 join.

// refutation proves that a query has no match: the inequality pair
// forced equal, and the uniqueness facts that forced it, in the order
// they were used.
type refutation struct {
	neq   [2]string
	facts []uniqueFact
}

// uniqueFact records that the set st holds the attribute list attrs
// unique.
type uniqueFact struct {
	st    *nr.SetType
	attrs []string
}

// explain renders the refutation for the query.eval span:
//
//	refuted: x_1 != x_2; lineitem unique on (l_extendedprice)
func (r *refutation) explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "refuted: %s != %s", r.neq[0], r.neq[1])
	for _, f := range r.facts {
		fmt.Fprintf(&b, "; %s unique on (%s)", f.st.Path, strings.Join(f.attrs, ", "))
	}
	return b.String()
}

// refute returns the proof that q has no match on the store's
// instance, or nil when it finds none. It union-finds the value
// variables: whenever two top-level atoms over one set type bind
// variables of one class on an attribute list the instance holds
// unique, it merges the variables of every attribute both atoms bind,
// repeating until nothing changes. An inequality pair whose sides are
// both bound and end in one class refutes the query. Pins, nested
// atoms and inequality sides no atom binds never take part, so a
// query with a match is never refuted.
func (q *Query) refute(store *IndexStore) *refutation {
	if len(q.Neq) == 0 {
		return nil
	}
	ids := make(map[string]int)
	for _, a := range q.Atoms {
		for _, v := range a.Bind {
			if _, ok := ids[v]; !ok {
				ids[v] = len(ids)
			}
		}
	}
	class := make([]int, len(ids))
	for i := range class {
		class[i] = i
	}
	find := func(v string) int {
		x := ids[v]
		for class[x] != x {
			class[x] = class[class[x]]
			x = class[x]
		}
		return x
	}

	type pair struct {
		a, b   *Atom
		st     *nr.SetType
		merged bool
	}
	var pairs []pair
	types := q.resolveTypes()
	for i := range q.Atoms {
		for j := i + 1; j < len(q.Atoms); j++ {
			if q.Atoms[i].Parent == "" && q.Atoms[j].Parent == "" && types[i] == types[j] {
				pairs = append(pairs, pair{a: &q.Atoms[i], b: &q.Atoms[j], st: types[i]})
			}
		}
	}
	var facts []uniqueFact
	var shared []string
	for changed := true; changed; {
		changed = false
		for p := range pairs {
			pr := &pairs[p]
			if pr.merged {
				continue
			}
			shared = shared[:0]
			for _, attr := range pr.st.Atoms {
				va, aok := pr.a.Bind[attr]
				vb, bok := pr.b.Bind[attr]
				if aok && bok && find(va) == find(vb) {
					shared = append(shared, attr)
				}
			}
			attrs := uniqueAttrs(store, pr.st, shared)
			if attrs == nil {
				continue
			}
			// Both atoms match one tuple: every attribute both bind
			// carries one value.
			for _, attr := range pr.st.Atoms {
				va, aok := pr.a.Bind[attr]
				vb, bok := pr.b.Bind[attr]
				if aok && bok {
					class[find(va)] = find(vb)
				}
			}
			pr.merged, changed = true, true
			if !slices.ContainsFunc(facts, func(f uniqueFact) bool {
				return f.st == pr.st && slices.Equal(f.attrs, attrs)
			}) {
				facts = append(facts, uniqueFact{pr.st, attrs})
			}
		}
	}
	for _, ne := range q.Neq {
		_, lok := ids[ne[0]]
		_, rok := ids[ne[1]]
		if lok && rok && find(ne[0]) == find(ne[1]) {
			return &refutation{neq: ne, facts: facts}
		}
	}
	return nil
}

// uniqueAttrs returns an attribute list, drawn from attrs, that the
// top-level set st holds unique: the first attribute in attrs whose
// distinct count equals the set's cardinality, else all of attrs when
// the store's uniqueness pass confirms them; nil when neither holds.
func uniqueAttrs(store *IndexStore, st *nr.SetType, attrs []string) []string {
	if len(attrs) == 0 {
		return nil
	}
	stats := store.Stats(st)
	for _, a := range attrs {
		if stats.Distinct[a] == stats.Card {
			return []string{a}
		}
	}
	if len(attrs) == 1 {
		return nil
	}
	list := slices.Clone(attrs)
	sort.Strings(list)
	if store.unique(st, list) {
		return list
	}
	return nil
}
