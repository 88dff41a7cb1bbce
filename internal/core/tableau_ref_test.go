package core

import (
	"fmt"
	"strconv"
	"strings"

	"muse/internal/deps"
	"muse/internal/instance"
	"muse/internal/mapping"
	"muse/internal/nr"
	"muse/internal/query"
)

// This file holds the reference for the compiled tableau of tableau.go:
// the map-based probe tableau, a union-find over term-keyed maps that
// is rebuilt from scratch (satisfy merges, agreed attributes, FD chase)
// for every trial merge. TestTableauMatchesReference requires the
// compiled tableau to give the same verdicts, class IDs, synthetic
// constants, real-example queries and synthetic examples.

// term identifies one attribute slot of the two-copy probe tableau:
// copy (1 or 2), for-variable, attribute.
type term struct {
	copy int
	v    string
	attr string
}

func (t term) String() string { return fmt.Sprintf("%d:%s.%s", t.copy, t.v, t.attr) }

// refTableau is the two-copy canonical example under construction for one
// probe: every for-variable appears once per copy, and attribute slots
// are merged into equivalence classes by the forced equalities.
type refTableau struct {
	m      *mapping.Mapping
	info   *mapping.Info
	copies int

	parent map[term]term
	// classValue, classID filled by finalize.
	classValue map[term]instance.Value
	classID    map[term]string
}

// newRefTableau builds the union-find base: intra-copy satisfy
// equalities are always merged.
func newRefTableau(m *mapping.Mapping, copies int) *refTableau {
	tb := &refTableau{m: m, info: m.MustAnalyze(), copies: copies, parent: make(map[term]term)}
	for c := 1; c <= copies; c++ {
		for _, q := range m.ForSat {
			tb.union(term{c, q.L.Var, q.L.Attr}, term{c, q.R.Var, q.R.Attr})
		}
	}
	return tb
}

func (tb *refTableau) find(x term) term {
	p, ok := tb.parent[x]
	if !ok || p == x {
		return x
	}
	root := tb.find(p)
	tb.parent[x] = root
	return root
}

func (tb *refTableau) union(a, b term) {
	ra, rb := tb.find(a), tb.find(b)
	if ra != rb {
		tb.parent[ra] = rb
	}
}

func (tb *refTableau) same(a, b term) bool { return tb.find(a) == tb.find(b) }

// agreeAcrossCopies merges the slot of expr in every copy.
func (tb *refTableau) agreeAcrossCopies(e mapping.Expr) {
	for c := 2; c <= tb.copies; c++ {
		tb.union(term{1, e.Var, e.Attr}, term{c, e.Var, e.Attr})
	}
}

// allTerms enumerates every slot of the tableau in deterministic
// order.
func (tb *refTableau) allTerms() []term {
	var out []term
	for c := 1; c <= tb.copies; c++ {
		for _, v := range tb.info.SrcOrder {
			for _, a := range tb.info.SrcVars[v].Atoms {
				out = append(out, term{c, v, a})
			}
		}
	}
	return out
}

// chaseFDs closes the equivalence classes under the source FDs (and
// key-induced FDs): whenever two tableau tuples of the same set agree
// on an FD's left-hand side, their right-hand sides are merged.
// Tableau tuples of the same set are (copy, var) pairs whose variables
// range over that set. Sets are visited in their first-appearance
// for-clause order, so the union order, and with it the slot that
// names each class, never depends on map iteration.
func (tb *refTableau) chaseFDs(src *deps.Set) {
	if src == nil {
		return
	}
	type row struct {
		copy int
		v    string
	}
	bySet := make(map[*nr.SetType][]row)
	var sets []*nr.SetType
	for c := 1; c <= tb.copies; c++ {
		for _, v := range tb.info.SrcOrder {
			st := tb.info.SrcVars[v]
			if _, seen := bySet[st]; !seen {
				sets = append(sets, st)
			}
			bySet[st] = append(bySet[st], row{c, v})
		}
	}
	for changed := true; changed; {
		changed = false
		for _, st := range sets {
			rows := bySet[st]
			fds := src.FDsOf(st)
			if len(fds) == 0 {
				continue
			}
			for i := 0; i < len(rows); i++ {
				for j := i + 1; j < len(rows); j++ {
					a, b := rows[i], rows[j]
					for _, fd := range fds {
						agree := true
						for _, attr := range fd.From {
							if !tb.same(term{a.copy, a.v, attr}, term{b.copy, b.v, attr}) {
								agree = false
								break
							}
						}
						if !agree {
							continue
						}
						for _, attr := range fd.To {
							x, y := term{a.copy, a.v, attr}, term{b.copy, b.v, attr}
							if !tb.same(x, y) {
								tb.union(x, y)
								changed = true
							}
						}
					}
				}
			}
		}
	}
}

// finalize assigns one fresh readable constant per equivalence class
// and a stable class identifier (used as the query's value-variable
// names).
func (tb *refTableau) finalize() {
	tb.classValue = make(map[term]instance.Value)
	tb.classID = make(map[term]string)
	counter := make(map[string]int)
	reps := make(map[term]instance.Value)
	ids := make(map[term]string)
	for _, t := range tb.allTerms() {
		root := tb.find(t)
		if _, ok := reps[root]; !ok {
			short := shortAttr(root.attr)
			counter[short]++
			reps[root] = instance.C(short + strconv.Itoa(counter[short]))
			ids[root] = "x_" + root.v + "_" + strings.ReplaceAll(root.attr, ".", "_") + "_" + strconv.Itoa(root.copy)
		}
		tb.classValue[t] = reps[root]
		tb.classID[t] = ids[root]
	}
}

// synthetic materializes the tableau as a synthetic source instance.
// Nested source variables get SetIDs derived from their parent tuple's
// atom values, so identical parent tuples share one nested set.
func (tb *refTableau) synthetic() *instance.Instance {
	in := instance.New(tb.m.Src)
	for c := 1; c <= tb.copies; c++ {
		for _, g := range tb.m.For {
			st := tb.info.SrcVars[g.Var]
			t := instance.NewTuple(st)
			for _, a := range st.Atoms {
				t.Put(a, tb.classValue[term{c, g.Var, a}])
			}
			// Mint SetIDs for the tuple's own set fields from its atom
			// values (deterministic: equal tuples share children).
			for _, f := range st.SetFields {
				args := make([]instance.Value, 0, len(st.Atoms))
				for _, a := range st.Atoms {
					args = append(args, tb.classValue[term{c, g.Var, a}])
				}
				child := st.Child(f)
				ref := instance.NewSetRef("Ie_"+child.SKName(), args...)
				t.Put(f, ref)
				in.EnsureSet(child, ref)
			}
			switch {
			case g.Root != nil:
				in.InsertTop(st, t)
			default:
				// The parent tuple's field ref: recompute from the
				// parent's classes (same derivation as above).
				pst := tb.info.SrcVars[g.Parent]
				args := make([]instance.Value, 0, len(pst.Atoms))
				for _, a := range pst.Atoms {
					args = append(args, tb.classValue[term{c, g.Parent, a}])
				}
				ref := instance.NewSetRef("Ie_"+st.SKName(), args...)
				in.Insert(st, ref, t)
			}
		}
	}
	return in
}

// realQuery builds the Q_Ie retrieving tuples from the actual source
// instance that realize the tableau's agree pattern, with the given
// disagreement pairs enforced as inequalities.
func (tb *refTableau) realQuery(differ []mapping.Expr) *query.Query {
	q := &query.Query{Src: tb.m.Src}
	for c := 1; c <= tb.copies; c++ {
		for _, g := range tb.m.For {
			st := tb.info.SrcVars[g.Var]
			atom := query.Atom{
				Var:  fmt.Sprintf("%s__%d", g.Var, c),
				Bind: make(map[string]string, len(st.Atoms)),
			}
			if g.Root != nil {
				atom.Set = g.Root
			} else {
				atom.Parent = fmt.Sprintf("%s__%d", g.Parent, c)
				atom.Field = g.Field
			}
			for _, a := range st.Atoms {
				atom.Bind[a] = tb.classID[term{c, g.Var, a}]
			}
			q.Atoms = append(q.Atoms, atom)
		}
	}
	for _, e := range differ {
		for c := 2; c <= tb.copies; c++ {
			q.Neq = append(q.Neq, [2]string{
				tb.classID[term{1, e.Var, e.Attr}],
				tb.classID[term{c, e.Var, e.Attr}],
			})
		}
	}
	return q
}

// buildProbeTableau constructs the two-copy tableau for a probe: it
// merges the agree attributes across copies one at a time (confirmed
// attributes first — the caller guarantees those cannot collapse the
// probe), dropping any undecided attribute whose merge would force one
// of the mustDiffer attributes to agree across copies (such attributes
// are equality-correlated with the probe — e.g. p.cid when probing
// c.cid under the join p.cid = c.cid — and are probed, or skipped as
// implied, in their own turn). It reports ok=false when even the
// confirmed merges collapse a mustDiffer attribute, i.e. the probe is
// unconstructible and its question inconsequential.
func buildProbeTableau(m *mapping.Mapping, src *deps.Set, confirmed, undecided, mustDiffer []mapping.Expr) (*refTableau, bool) {
	build := func(agree []mapping.Expr) *refTableau {
		tb := newRefTableau(m, 2)
		for _, e := range agree {
			tb.agreeAcrossCopies(e)
		}
		tb.chaseFDs(src)
		return tb
	}
	differOK := func(tb *refTableau) bool {
		for _, e := range mustDiffer {
			if tb.same(term{1, e.Var, e.Attr}, term{2, e.Var, e.Attr}) {
				return false
			}
		}
		return true
	}
	agreed := append([]mapping.Expr{}, confirmed...)
	tb := build(agreed)
	if !differOK(tb) {
		return nil, false
	}
	for _, b := range undecided {
		trial := build(append(agreed, b))
		if differOK(trial) {
			agreed = append(agreed, b)
			tb = trial
		}
	}
	return tb, true
}

// refProbeSetup is the map-based probeSetup: the same agreement pattern,
// with the exclusion set keyed by rendered expressions.
func refProbeSetup(m *mapping.Mapping, src *deps.Set, poss, confirmed []mapping.Expr, decidedOut map[mapping.Expr]bool, probe mapping.Expr, alwaysDiffer []mapping.Expr) (*refTableau, bool) {
	excluded := make(map[string]bool, len(decidedOut)+1+len(alwaysDiffer)+len(confirmed))
	for k := range decidedOut {
		excluded[k.String()] = true
	}
	excluded[probe.String()] = true
	for _, e := range confirmed {
		excluded[e.String()] = true
	}
	for _, e := range alwaysDiffer {
		excluded[e.String()] = true
	}
	var undecided []mapping.Expr
	for _, e := range poss {
		if !excluded[e.String()] {
			undecided = append(undecided, e)
		}
	}
	mustDiffer := append([]mapping.Expr{probe}, alwaysDiffer...)
	tb, ok := buildProbeTableau(m, src, confirmed, undecided, mustDiffer)
	if !ok {
		return nil, false
	}
	tb.finalize()
	return tb, true
}
