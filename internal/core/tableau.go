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

// term identifies one attribute slot of the two-copy probe tableau:
// copy (1 or 2), for-variable, attribute.
type term struct {
	copy int
	v    string
	attr string
}

func (t term) String() string { return fmt.Sprintf("%d:%s.%s", t.copy, t.v, t.attr) }

// tableau is the two-copy canonical example under construction for one
// probe: every for-variable appears once per copy, and attribute slots
// are merged into equivalence classes by the forced equalities.
type tableau struct {
	m      *mapping.Mapping
	info   *mapping.Info
	copies int

	parent map[term]term
	// classValue, classID filled by finalize.
	classValue map[term]instance.Value
	classID    map[term]string
}

// newTableau builds the union-find base: intra-copy satisfy
// equalities are always merged.
func newTableau(m *mapping.Mapping, copies int) *tableau {
	tb := &tableau{m: m, info: m.MustAnalyze(), copies: copies, parent: make(map[term]term)}
	for c := 1; c <= copies; c++ {
		for _, q := range m.ForSat {
			tb.union(term{c, q.L.Var, q.L.Attr}, term{c, q.R.Var, q.R.Attr})
		}
	}
	return tb
}

func (tb *tableau) find(x term) term {
	p, ok := tb.parent[x]
	if !ok || p == x {
		return x
	}
	root := tb.find(p)
	tb.parent[x] = root
	return root
}

func (tb *tableau) union(a, b term) {
	ra, rb := tb.find(a), tb.find(b)
	if ra != rb {
		tb.parent[ra] = rb
	}
}

func (tb *tableau) same(a, b term) bool { return tb.find(a) == tb.find(b) }

// agreeAcrossCopies merges the slot of expr in every copy.
func (tb *tableau) agreeAcrossCopies(e mapping.Expr) {
	for c := 2; c <= tb.copies; c++ {
		tb.union(term{1, e.Var, e.Attr}, term{c, e.Var, e.Attr})
	}
}

// allTerms enumerates every slot of the tableau in deterministic
// order.
func (tb *tableau) allTerms() []term {
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
// range over that set.
func (tb *tableau) chaseFDs(src *deps.Set) {
	if src == nil {
		return
	}
	type row struct {
		copy int
		v    string
	}
	bySet := make(map[*nr.SetType][]row)
	for c := 1; c <= tb.copies; c++ {
		for _, v := range tb.info.SrcOrder {
			st := tb.info.SrcVars[v]
			bySet[st] = append(bySet[st], row{c, v})
		}
	}
	for changed := true; changed; {
		changed = false
		for st, rows := range bySet {
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
func (tb *tableau) finalize() {
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

// shortAttr abbreviates an attribute label for synthetic values, in
// the spirit of the paper's c1/n1/l1 examples.
func shortAttr(attr string) string {
	if i := strings.LastIndexByte(attr, '.'); i >= 0 {
		attr = attr[i+1:]
	}
	if len(attr) > 4 {
		attr = attr[:4]
	}
	return attr
}

// synthetic materializes the tableau as a synthetic source instance.
// Nested source variables get SetIDs derived from their parent tuple's
// atom values, so identical parent tuples share one nested set.
func (tb *tableau) synthetic() *instance.Instance {
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
func (tb *tableau) realQuery(differ []mapping.Expr) *query.Query {
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

// fromMatch materializes the example instance from a real query match
// (the match's atoms are ordered copy-major exactly as realQuery
// emitted them).
func (tb *tableau) fromMatch(m query.Match, realSrc *instance.Instance) *instance.Instance {
	in := instance.New(tb.m.Src)
	idx := 0
	for c := 1; c <= tb.copies; c++ {
		for _, g := range tb.m.For {
			st := tb.info.SrcVars[g.Var]
			t := m.Tuples[idx]
			idx++
			if g.Root != nil {
				in.InsertTop(st, t.Clone())
			} else {
				// Preserve the real nesting: the child lives in the
				// occurrence its parent references.
				parentTuple := m.Tuples[tb.atomIndex(c, g.Parent)]
				ref, _ := parentTuple.Get(g.Field).(*instance.SetRef)
				in.Insert(st, ref, t.Clone())
			}
		}
	}
	// Carry over the (possibly empty) nested sets referenced by copied
	// tuples so the example is self-contained.
	for _, s := range in.AllSets() {
		for _, t := range s.View() {
			for _, f := range s.Type.SetFields {
				if ref, ok := t.Get(f).(*instance.SetRef); ok {
					if child := s.Type.Child(f); child != nil {
						in.EnsureSet(child, ref)
					}
				}
			}
		}
	}
	return in
}

// atomIndex returns the position of (copy, var) in realQuery's atom
// order.
func (tb *tableau) atomIndex(c int, v string) int {
	for i, g := range tb.m.For {
		if g.Var == v {
			return (c-1)*len(tb.m.For) + i
		}
	}
	panic(fmt.Sprintf("core: no for-variable %q", v))
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
func buildProbeTableau(m *mapping.Mapping, src *deps.Set, confirmed, undecided, mustDiffer []mapping.Expr) (*tableau, bool) {
	build := func(agree []mapping.Expr) *tableau {
		tb := newTableau(m, 2)
		for _, e := range agree {
			tb.agreeAcrossCopies(e)
		}
		tb.chaseFDs(src)
		return tb
	}
	differOK := func(tb *tableau) bool {
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

// tableauImplications lifts the source FDs and the satisfy equalities
// to implications over "var.attr" strings, for attribute-closure
// reasoning on poss(m, SK) (Thm 3.2 and its FD generalization).
func tableauImplications(m *mapping.Mapping, src *deps.Set) []deps.Implication {
	info := m.MustAnalyze()
	var imps []deps.Implication
	for _, q := range m.ForSat {
		l, r := q.L.String(), q.R.String()
		imps = append(imps,
			deps.Implication{From: []string{l}, To: []string{r}},
			deps.Implication{From: []string{r}, To: []string{l}})
	}
	if src != nil {
		for _, v := range info.SrcOrder {
			st := info.SrcVars[v]
			for _, fd := range src.FDsOf(st) {
				imp := deps.Implication{}
				for _, a := range fd.From {
					imp.From = append(imp.From, mapping.E(v, a).String())
				}
				for _, a := range fd.To {
					imp.To = append(imp.To, mapping.E(v, a).String())
				}
				imps = append(imps, imp)
			}
		}
	}
	return imps
}

// keyCovered returns, in probe order, the poss attributes that belong
// to a candidate key of their variable's set (derived from the
// declared keys and FDs, Sec. III-C), and the remaining attributes.
func keyCovered(m *mapping.Mapping, src *deps.Set) (keyAttrs, rest []mapping.Expr) {
	info := m.MustAnalyze()
	for _, v := range info.SrcOrder {
		st := info.SrcVars[v]
		inKey := make(map[string]bool)
		if src != nil {
			for _, k := range src.CandidateKeys(st) {
				for _, a := range k.Attrs {
					inKey[a] = true
				}
			}
		}
		for _, a := range st.Atoms {
			if inKey[a] {
				keyAttrs = append(keyAttrs, mapping.E(v, a))
			} else {
				rest = append(rest, mapping.E(v, a))
			}
		}
	}
	return keyAttrs, rest
}

// multiKeyed reports whether any for-variable's set has more than one
// candidate key (derived from keys and FDs; the multi-key protocol of
// Sec. III-B then applies).
func multiKeyed(m *mapping.Mapping, src *deps.Set) bool {
	if src == nil {
		return false
	}
	info := m.MustAnalyze()
	for _, v := range info.SrcOrder {
		if !src.SingleKeyedFDs(info.SrcVars[v]) {
			return true
		}
	}
	return false
}
