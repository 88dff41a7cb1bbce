package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"muse/internal/chase"
	"muse/internal/deps"
	"muse/internal/instance"
	"muse/internal/mapping"
	"muse/internal/nr"
	"muse/internal/query"
)

// tableau is the canonical example of a mapping's for+satisfy clause
// (Sec. III-A), in one copy or in the two copies a probe compares,
// compiled once to dense slots: slot (c-1)*width+k is atom k of copy c,
// atoms numbered variable by variable in for-clause order. The
// equalities the example must satisfy partition the slots into classes,
// kept in one union-find over parent links that are never compressed,
// so resetting the roots on the trail undoes any merge exactly.
type tableau struct {
	m      *mapping.Mapping
	info   *mapping.Info
	copies int
	width  int32                  // slots per copy
	slot   map[mapping.Expr]int32 // copy-1 slot of each for-clause atom
	first  []int32                // copy-1 slot of each variable's first atom
	sat    []int32                // parent links after the satisfy merges
	rules  []fdRule               // source FDs per pair of rows, in chase order
	ids    []string               // per slot: the ID of a class it roots
	short  []string               // per copy-1 slot: shortAttr of its atom

	parent []int32
	trail  []int32 // roots linked, in link order
	agreed []int32 // copy-1 slots merged across copies, in merge order
	differ []int32 // copy-1 slots that must stay apart across copies

	// classValue is every slot's synthetic constant (set by name).
	classValue []instance.Value

	// scenarios is m's chase compiled for m.Src, which a Muse-G
	// question's two scenarios run (questionTableau); nil on the
	// tableaux of retrieval and Muse-D.
	scenarios *chase.Program
}

// fdRule applies one source FD to one pair of rows over its set: when
// the rows agree on every from pair of slots, each to pair is merged.
// Pairs are flattened: a0, b0, a1, b1, ...
type fdRule struct{ from, to []int32 }

// compileTableau lays out copies of m's canonical tableau, merges the
// satisfy equalities within each copy, compiles src's FDs (declared and
// key-induced) into rules, and names the classes with no attribute
// agreeing across copies.
func compileTableau(m *mapping.Mapping, src *deps.Set, copies int) *tableau {
	info := m.MustAnalyze()
	tb := &tableau{m: m, info: info, copies: copies, slot: make(map[mapping.Expr]int32)}
	for _, v := range info.SrcOrder {
		tb.first = append(tb.first, tb.width)
		for _, a := range info.SrcVars[v].Atoms {
			tb.slot[mapping.E(v, a)] = tb.width
			tb.short = append(tb.short, shortAttr(a))
			tb.width++
		}
	}
	n := int32(copies) * tb.width
	tb.parent = make([]int32, n)
	for s := range tb.parent {
		tb.parent[s] = int32(s)
	}
	for c := 1; c <= copies; c++ {
		for _, v := range info.SrcOrder {
			for _, a := range info.SrcVars[v].Atoms {
				tb.ids = append(tb.ids, "x_"+v+"_"+strings.ReplaceAll(a, ".", "_")+"_"+strconv.Itoa(c))
			}
		}
		for _, q := range m.ForSat {
			tb.union(tb.at(c, tb.slot[q.L]), tb.at(c, tb.slot[q.R]))
		}
	}
	tb.sat = slices.Clone(tb.parent)
	tb.classValue = make([]instance.Value, n)
	tb.compileFDs(src)
	tb.name()
	return tb
}

// compileFDs turns src's FDs into rules over every pair of rows (a row
// is one copy of one for-variable) ranging over the same set, in the
// order the closure visits them: sets in first-appearance for-clause
// order, row pairs in copy-major order, then the set's FDs.
func (tb *tableau) compileFDs(src *deps.Set) {
	if src == nil {
		return
	}
	var sets []*nr.SetType
	rows := make(map[*nr.SetType][]int32) // each row's first slot
	for c := 1; c <= tb.copies; c++ {
		for i, v := range tb.info.SrcOrder {
			st := tb.info.SrcVars[v]
			if _, seen := rows[st]; !seen {
				sets = append(sets, st)
			}
			rows[st] = append(rows[st], tb.at(c, tb.first[i]))
		}
	}
	pairs := func(st *nr.SetType, a, b int32, attrs []string) []int32 {
		out := make([]int32, 0, 2*len(attrs))
		for _, attr := range attrs {
			k := int32(st.Slot(attr)) // atoms take the first slots
			out = append(out, a+k, b+k)
		}
		return out
	}
	for _, st := range sets {
		rs, fds := rows[st], src.FDsOf(st)
		for i := range rs {
			for j := i + 1; j < len(rs); j++ {
				for _, fd := range fds {
					tb.rules = append(tb.rules, fdRule{pairs(st, rs[i], rs[j], fd.From), pairs(st, rs[i], rs[j], fd.To)})
				}
			}
		}
	}
}

// at returns the slot of copy-1 slot s in copy c.
func (tb *tableau) at(c int, s int32) int32 { return int32(c-1)*tb.width + s }

func (tb *tableau) find(s int32) int32 {
	for tb.parent[s] != s {
		s = tb.parent[s]
	}
	return s
}

// union links a's root under b's root and records the link on the
// trail. It reports whether the classes were distinct.
func (tb *tableau) union(a, b int32) bool {
	ra, rb := tb.find(a), tb.find(b)
	if ra == rb {
		return false
	}
	tb.parent[ra] = rb
	tb.trail = append(tb.trail, ra)
	return true
}

// undo unlinks every root linked since mark.
func (tb *tableau) undo(mark int) {
	for _, r := range tb.trail[mark:] {
		tb.parent[r] = r
	}
	tb.trail = tb.trail[:mark]
}

// closeFDs applies the FD rules until none merges anything.
func (tb *tableau) closeFDs() {
	for changed := true; changed; {
		changed = false
	rules:
		for _, r := range tb.rules {
			for k := 0; k < len(r.from); k += 2 {
				if tb.find(r.from[k]) != tb.find(r.from[k+1]) {
					continue rules
				}
			}
			for k := 0; k < len(r.to); k += 2 {
				if tb.union(r.to[k], r.to[k+1]) {
					changed = true
				}
			}
		}
	}
}

// probe builds the two-copy tableau of a probe: the confirmed
// attributes agree across copies (the caller guarantees those cannot
// collapse the probe), then each undecided attribute in turn, unless
// its merge would force one of the mustDiffer attributes to agree
// across copies (such attributes are equality-correlated with the
// probe, e.g. p.cid when probing c.cid under the join p.cid = c.cid,
// and are probed, or skipped as implied, in their own turn). It
// reports false when even the confirmed merges collapse a mustDiffer
// attribute, i.e. the probe is unconstructible and its question
// inconsequential; otherwise it names the accepted partition.
func (tb *tableau) probe(confirmed, undecided, mustDiffer []mapping.Expr) bool {
	copy(tb.parent, tb.sat)
	tb.trail, tb.agreed, tb.differ = tb.trail[:0], tb.agreed[:0], tb.differ[:0]
	for _, e := range mustDiffer {
		tb.differ = append(tb.differ, tb.slot[e])
	}
	for _, e := range confirmed {
		tb.agreed = append(tb.agreed, tb.slot[e])
		tb.union(tb.slot[e], tb.at(2, tb.slot[e]))
	}
	tb.closeFDs()
	if !tb.differs() {
		return false
	}
	for _, e := range undecided {
		if s := tb.slot[e]; tb.try(s) {
			tb.agreed = append(tb.agreed, s)
		}
	}
	tb.name()
	return true
}

// try is one trial merge: it merges copy-1 slot s with its copy-2 twin
// and closes the classes under the FD rules, keeping the merges only if
// every mustDiffer slot still differs from its twin, and undoing them
// through the trail otherwise.
func (tb *tableau) try(s int32) bool {
	mark := len(tb.trail)
	tb.union(s, tb.at(2, s))
	tb.closeFDs()
	if tb.differs() {
		return true
	}
	tb.undo(mark)
	return false
}

func (tb *tableau) differs() bool {
	for _, s := range tb.differ {
		if tb.find(s) == tb.find(tb.at(2, s)) {
			return false
		}
	}
	return true
}

// name rebuilds the accepted partition from the satisfy merges in one
// fixed order, agreed attributes in order and then the FD rules to a
// fixpoint, each union linking the first root under the second. Trials
// merge in another order, which gives the same classes but not
// necessarily the same roots, and a class is named after its root: the
// root's ID is the query's value variable and its attribute prefixes
// the synthetic constant. So names never depend on which trials ran.
// Then, in slot order, each class gets a fresh readable constant.
func (tb *tableau) name() {
	copy(tb.parent, tb.sat)
	tb.trail = tb.trail[:0]
	for _, s := range tb.agreed {
		tb.union(s, tb.at(2, s))
	}
	tb.closeFDs()
	clear(tb.classValue)
	count := make(map[string]int) // constants minted per short label
	for s := range tb.parent {
		r := tb.find(int32(s))
		if tb.classValue[r] == nil {
			short := tb.short[r%tb.width]
			count[short]++
			tb.classValue[r] = instance.C(short + strconv.Itoa(count[short]))
		}
		tb.classValue[s] = tb.classValue[r]
	}
}

// classID returns the stable identifier of slot s's class, used as the
// query's value-variable name.
func (tb *tableau) classID(s int32) string { return tb.ids[tb.find(s)] }

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
		for i, g := range tb.m.For {
			st := tb.info.SrcVars[g.Var]
			vals := tb.values(c, i)
			t := instance.NewTuple(st)
			for k, v := range vals {
				t.PutSlot(k, v)
			}
			// Mint SetIDs for the tuple's own set fields from its atom
			// values (deterministic: equal tuples share children).
			for _, f := range st.SetFields {
				child := st.Child(f)
				ref := instance.NewSetRef("Ie_"+child.SKName(), slices.Clone(vals)...)
				t.Put(f, ref)
				in.EnsureSet(child, ref)
			}
			if g.Root != nil {
				in.InsertTop(st, t)
				continue
			}
			// The parent tuple's field ref: recompute from the parent's
			// classes (same derivation as above).
			ref := instance.NewSetRef("Ie_"+st.SKName(), slices.Clone(tb.values(c, tb.atomIndex(1, g.Parent)))...)
			in.Insert(st, ref, t)
		}
	}
	return in
}

// values returns the synthetic constants of the atoms of the i-th
// for-variable in copy c.
func (tb *tableau) values(c, i int) []instance.Value {
	s := tb.at(c, tb.first[i])
	return tb.classValue[s : s+int32(len(tb.info.SrcVars[tb.m.For[i].Var].Atoms))]
}

// realQuery builds the Q_Ie retrieving tuples from the actual source
// instance that realize the tableau's agree pattern, with the given
// disagreement pairs enforced as inequalities.
func (tb *tableau) realQuery(differ []mapping.Expr) *query.Query {
	q := &query.Query{Src: tb.m.Src}
	for c := 1; c <= tb.copies; c++ {
		suffix := "__" + strconv.Itoa(c)
		for i, g := range tb.m.For {
			st := tb.info.SrcVars[g.Var]
			atom := query.Atom{Var: g.Var + suffix, Bind: make(map[string]string, len(st.Atoms))}
			if g.Root != nil {
				atom.Set = g.Root
			} else {
				atom.Parent = g.Parent + suffix
				atom.Field = g.Field
			}
			for k, a := range st.Atoms {
				atom.Bind[a] = tb.classID(tb.at(c, tb.first[i]+int32(k)))
			}
			q.Atoms = append(q.Atoms, atom)
		}
	}
	for _, e := range differ {
		s := tb.slot[e]
		for c := 2; c <= tb.copies; c++ {
			q.Neq = append(q.Neq, [2]string{tb.classID(s), tb.classID(tb.at(c, s))})
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
