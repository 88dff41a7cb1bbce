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
	pairs  []rowPair              // top-level rows over one set, in refute order
	ids    []string               // per slot: the ID of a class it roots
	short  []string               // per copy-1 slot: shortAttr of its atom

	parent []int32
	trail  []int32 // roots linked, in link order
	agreed []int32 // copy-1 slots merged across copies, in merge order
	differ []int32 // copy-1 slots that must stay apart across copies

	// classValue is every slot's synthetic constant (set by name). minted
	// holds each label's constants by ordinal, minted once per tableau,
	// and count the ordinals name has used.
	classValue []instance.Value
	minted     map[string][]instance.Value
	count      map[string]int

	// scenarios is m's chase compiled for m.Src, which a Muse-G
	// question's two scenarios run (questionTableau); nil on the
	// tableaux of retrieval and Muse-D.
	scenarios *chase.Program

	// keys and filter lay out the current probe for its scan of the
	// assignment table (decidedShape); least is leastSlots' scratch.
	keys, filter []int32
	least        []int32

	// neq is the current retrieval's must-differ slot pairs, flattened
	// (differPairs, choicePairs). excluded, undecided and mustDiffer are
	// probeSetup's scratch.
	neq                   []int32
	excluded              []bool
	undecided, mustDiffer []mapping.Expr

	// refute's scratch, and the proof of its last refutation: the
	// refuted pair's class IDs and the uniqueness facts used, whose
	// attribute lists factAttrs holds.
	merged    []bool
	shared    []string
	neqIDs    [2]string
	facts     []uniqueFact
	factAttrs []string
}

// rowPair is two top-level rows over one set, by their first slots.
type rowPair struct {
	st   *nr.SetType
	a, b int32
}

// uniqueFact records that the set st holds attrs unique.
type uniqueFact struct {
	st    *nr.SetType
	attrs []string
}

// fdRule applies one source FD to one pair of rows over its set: when
// the rows agree on every from pair of slots, each to pair is merged.
// Pairs are flattened: a0, b0, a1, b1, ...
type fdRule struct{ from, to []int32 }

// compileTableau lays out copies of m's canonical tableau, merges the
// equalities of sourceEqs within each copy, compiles src's FDs
// (declared and key-induced) into rules, and names the classes with no
// attribute agreeing across copies.
func compileTableau(m *mapping.Mapping, src *deps.Set, copies int) *tableau {
	info := m.MustAnalyze()
	tb := &tableau{m: m, info: info, copies: copies, slot: make(map[mapping.Expr]int32),
		minted: make(map[string][]instance.Value), count: make(map[string]int)}
	for _, v := range info.SrcOrder {
		tb.first = append(tb.first, tb.width)
		for _, a := range info.SrcVars[v].Atoms {
			tb.slot[mapping.E(v, a)] = tb.width
			tb.short = append(tb.short, shortAttr(a))
			tb.width++
		}
	}
	tb.excluded = make([]bool, tb.width)
	n := int32(copies) * tb.width
	tb.parent = make([]int32, n)
	for s := range tb.parent {
		tb.parent[s] = int32(s)
	}
	eqs := sourceEqs(m)
	for c := 1; c <= copies; c++ {
		for _, v := range info.SrcOrder {
			for _, a := range info.SrcVars[v].Atoms {
				tb.ids = append(tb.ids, "x_"+v+"_"+strings.ReplaceAll(a, ".", "_")+"_"+strconv.Itoa(c))
			}
		}
		for _, q := range eqs {
			tb.union(tb.at(c, tb.slot[q.L]), tb.at(c, tb.slot[q.R]))
		}
	}
	tb.sat = slices.Clone(tb.parent)
	tb.classValue = make([]instance.Value, n)
	tb.compileFDs(src)
	tb.compilePairs()
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

// compilePairs lists, for refute, every pair of top-level rows over
// one set, rows in copy-major and then for-clause order. Nested rows
// never pair: their uniqueness would have to hold across occurrences.
func (tb *tableau) compilePairs() {
	var rows []rowPair // a row each, in a
	for c := 1; c <= tb.copies; c++ {
		for i, g := range tb.m.For {
			if g.Root != nil {
				rows = append(rows, rowPair{st: tb.info.SrcVars[g.Var], a: tb.at(c, tb.first[i])})
			}
		}
	}
	for i, x := range rows {
		for _, y := range rows[i+1:] {
			if x.st == y.st {
				tb.pairs = append(tb.pairs, rowPair{x.st, x.a, y.a})
			}
		}
	}
	tb.merged = make([]bool, len(tb.pairs))
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
// root's ID names it in refutations and decisions, and its attribute
// prefixes the synthetic constant. So names never depend on which trials ran.
// Then, in slot order, each class gets a fresh readable constant.
func (tb *tableau) name() {
	copy(tb.parent, tb.sat)
	tb.trail = tb.trail[:0]
	for _, s := range tb.agreed {
		tb.union(s, tb.at(2, s))
	}
	tb.closeFDs()
	clear(tb.classValue)
	clear(tb.count)
	for s := range tb.parent {
		r := tb.find(int32(s))
		if tb.classValue[r] == nil {
			short := tb.short[r%tb.width]
			n := tb.count[short]
			tb.count[short]++
			if n == len(tb.minted[short]) {
				tb.minted[short] = append(tb.minted[short], instance.C(short+strconv.Itoa(n+1)))
			}
			tb.classValue[r] = tb.minted[short][n]
		}
		tb.classValue[s] = tb.classValue[r]
	}
}

// refute reports whether, on the instance store counts, the current
// partition forces one of the slot pairs of neq (flattened) into one
// class. Two top-level rows over one set that agree on an attribute
// list the instance holds unique are one tuple, so all their atom slots
// are merged, on the trail and to a fixpoint; the merges are undone
// before refute returns. A witness sets every atom, so a retrieval with
// a witness is never refuted. A refutation keeps its proof for
// explainRefuted.
func (tb *tableau) refute(store *query.IndexStore, neq []int32) bool {
	mark := len(tb.trail)
	clear(tb.merged)
	tb.facts, tb.factAttrs = tb.facts[:0], tb.factAttrs[:0]
	for changed := true; changed; {
		changed = false
		for p, pr := range tb.pairs {
			if tb.merged[p] {
				continue
			}
			tb.shared = tb.shared[:0]
			for k, a := range pr.st.Atoms {
				if tb.find(pr.a+int32(k)) == tb.find(pr.b+int32(k)) {
					tb.shared = append(tb.shared, a)
				}
			}
			slices.Sort(tb.shared)
			attrs := store.UniqueAttrs(pr.st, tb.shared)
			if attrs == nil {
				continue
			}
			for k := range int32(len(pr.st.Atoms)) {
				tb.union(pr.a+k, pr.b+k)
			}
			tb.merged[p], changed = true, true
			if !slices.ContainsFunc(tb.facts, func(f uniqueFact) bool { return f.st == pr.st && slices.Equal(f.attrs, attrs) }) {
				n := len(tb.factAttrs)
				tb.factAttrs = append(tb.factAttrs, attrs...)
				tb.facts = append(tb.facts, uniqueFact{pr.st, tb.factAttrs[n:]})
			}
		}
	}
	refuted := -1
	for k := 0; k < len(neq) && refuted < 0; k += 2 {
		if tb.find(neq[k]) == tb.find(neq[k+1]) {
			refuted = k
		}
	}
	tb.undo(mark)
	if refuted >= 0 {
		// Each side is named after its class in the partition the
		// merges were undone to.
		tb.neqIDs = [2]string{tb.classID(neq[refuted]), tb.classID(neq[refuted+1])}
	}
	return refuted >= 0
}

// explainRefuted renders the last refutation's proof, naming the pair
// by their classes' IDs and the facts in the order used:
//
//	refuted: x_1 != x_2; lineitem unique on (l_extendedprice)
func (tb *tableau) explainRefuted() string {
	var b strings.Builder
	fmt.Fprintf(&b, "refuted: %s != %s", tb.neqIDs[0], tb.neqIDs[1])
	for _, f := range tb.facts {
		fmt.Fprintf(&b, "; %s unique on (%s)", f.st.Path, strings.Join(f.attrs, ", "))
	}
	return b.String()
}

// laidOutIn reports whether cat lays out every set of the for clause
// as m.Src does, so that retrieval may read an instance of cat.
func (tb *tableau) laidOutIn(cat *nr.Catalog) bool {
	if cat == tb.m.Src {
		return true
	}
	for _, st := range tb.info.SrcVars {
		if it := cat.ByPath(st.Path); it == nil || !slices.Equal(it.Atoms, st.Atoms) || !slices.Equal(it.SetFields, st.SetFields) {
			return false
		}
	}
	return true
}

// leastSlots returns, indexed by class root, the least copy-1 slot of
// each class in copy 1 and in copy 2, or -1 where the class has none
// there (the copy-2 half is all -1 on a one-copy tableau).
func (tb *tableau) leastSlots() [2][]int32 {
	n := len(tb.parent)
	if len(tb.least) < 2*n {
		tb.least = make([]int32, 2*n)
	}
	for i := range tb.least {
		tb.least[i] = -1
	}
	least := [2][]int32{tb.least[:n], tb.least[n : 2*n]}
	for s := tb.width - 1; s >= 0; s-- {
		for c := 1; c <= tb.copies; c++ {
			least[c-1][tb.find(tb.at(c, s))] = s
		}
	}
	return least
}

// decidedShape reports whether the current partition has the shape
// assignTable.witness scans: the slots of each copy fall into the same
// within-copy groups, and a class that spans both copies joins a group
// of copy-1 slots with the same group of copy-2 slots. It then fills
// keys with the least copy-1 slot of each class that spans both copies,
// and filter with each other copy-1 slot of a group paired with the
// group's least slot, flattened. A witness is then two assignments that
// each carry one value per filter pair, agree on keys and differ on the
// probed slot.
func (tb *tableau) decidedShape() bool {
	least := tb.leastSlots()
	tb.keys, tb.filter = tb.keys[:0], tb.filter[:0]
	for s := int32(0); s < tb.width; s++ {
		a, b := tb.find(s), tb.find(tb.at(2, s))
		g := least[0][a]
		if g != least[1][b] || a != b && (least[1][a] >= 0 || least[0][b] >= 0) {
			return false
		}
		switch {
		case g != s:
			tb.filter = append(tb.filter, s, g)
		case a == b:
			tb.keys = append(tb.keys, s)
		}
	}
	return true
}

// pattern renders the current partition and the must-differ slot pairs
// of neq (flattened) as ProbeDecision's classes and pairs, classes in
// order of their least slot.
func (tb *tableau) pattern(neq []int32) (classes [][]Slot, differ [][2]Slot) {
	atoms := make([]mapping.Expr, 0, tb.width)
	for _, v := range tb.info.SrcOrder {
		for _, a := range tb.info.SrcVars[v].Atoms {
			atoms = append(atoms, mapping.E(v, a))
		}
	}
	slot := func(x int32) Slot { return Slot{Copy: int(x/tb.width) + 1, Atom: atoms[x%tb.width]} }
	at := make(map[int32]int)
	for x := range int32(len(tb.parent)) {
		r := tb.find(x)
		k, ok := at[r]
		if !ok {
			k = len(classes)
			at[r] = k
			classes = append(classes, nil)
		}
		classes[k] = append(classes[k], slot(x))
	}
	for k := 0; k < len(neq); k += 2 {
		differ = append(differ, [2]Slot{slot(neq[k]), slot(neq[k+1])})
	}
	return classes, differ
}

// classID returns the stable identifier of slot s's class, which
// refutations and decisions name it by.
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
			ref := instance.NewSetRef("Ie_"+st.SKName(), slices.Clone(tb.values(c, tb.genIndex(g.Parent)))...)
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

// differPairs sets neq to the pairs a probe whose copies differ on
// differ requires to differ: each attribute's copy-1 slot with its
// twin in every other copy.
func (tb *tableau) differPairs(differ []mapping.Expr) []int32 {
	tb.neq = tb.neq[:0]
	for _, e := range differ {
		s := tb.slot[e]
		for c := 2; c <= tb.copies; c++ {
			tb.neq = append(tb.neq, s, tb.at(c, s))
		}
	}
	return tb.neq
}

// choicePairs sets neq to the pairs Muse-D's one-copy example requires
// to differ (the en1 != en2 of Sec. IV-A): the alternatives of each
// or-group, pairwise, unless the tableau already puts them in one
// class, where no data can tell them apart.
func (tb *tableau) choicePairs() []int32 {
	tb.neq = tb.neq[:0]
	for _, g := range tb.m.OrGroups {
		for i := 0; i < len(g.Alts); i++ {
			for j := i + 1; j < len(g.Alts); j++ {
				if a, b := tb.slot[g.Alts[i]], tb.slot[g.Alts[j]]; tb.find(a) != tb.find(b) {
					tb.neq = append(tb.neq, a, b)
				}
			}
		}
	}
	return tb.neq
}

// fromRows materializes the example instance from real assignments,
// one row per copy, each holding one tuple per for-clause generator.
func (tb *tableau) fromRows(rows ...[]*instance.Tuple) *instance.Instance {
	in := instance.New(tb.m.Src)
	for _, row := range rows {
		for i, g := range tb.m.For {
			// A real instance of another catalog lays the set out as
			// m.Src does (laidOutIn), so its slots copy by position.
			st := tb.info.SrcVars[g.Var]
			t := instance.NewTuple(st)
			for k := range row[i].NumSlots() {
				t.PutSlot(k, row[i].ValAt(k))
			}
			if g.Root != nil {
				in.InsertTop(st, t)
				continue
			}
			// Preserve the real nesting: the child lives in the
			// occurrence its parent references.
			ref, _ := row[tb.genIndex(g.Parent)].Get(g.Field).(*instance.SetRef)
			in.Insert(st, ref, t)
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

// genIndex returns the position of the for-variable v in the for
// clause.
func (tb *tableau) genIndex(v string) int {
	for i, g := range tb.m.For {
		if g.Var == v {
			return i
		}
	}
	panic(fmt.Sprintf("core: no for-variable %q", v))
}

// sourceEqs returns the equalities every assignment the chase fires on
// satisfies: the satisfy clause, then the where clause's implied
// equalities (mapping.FeedEqs).
func sourceEqs(m *mapping.Mapping) []mapping.Eq {
	feeds := m.FeedEqs()
	if len(feeds) == 0 {
		return m.ForSat
	}
	return append(slices.Clip(m.ForSat), feeds...)
}

// tableauImplications lifts the source FDs and the equalities of
// sourceEqs to implications over "var.attr" strings, for
// attribute-closure reasoning on poss(m, SK) (Thm 3.2 and its FD
// generalization).
func tableauImplications(m *mapping.Mapping, src *deps.Set) []deps.Implication {
	info := m.MustAnalyze()
	var imps []deps.Implication
	for _, q := range sourceEqs(m) {
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
