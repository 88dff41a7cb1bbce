package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"muse/internal/chase"
	"muse/internal/deps"
	"muse/internal/instance"
	"muse/internal/mapping"
	"muse/internal/obs"
	"muse/internal/query"
)

// A retriever is one real-example retrieval (the Q_Ie of Sec. III-A and
// IV-A), which Env.retrieve runs: refute it on its tableau, and
// otherwise scan the real instance's assignments for its witness.
type retriever interface {
	// refute reports whether the tableau refutes the retrieval from the
	// real instance's unique attributes, without a scan.
	refute() bool
	// scan looks for the witness, reporting whether it found one and
	// how many assignments it read. An error (a cancelled ctx, a spent
	// budget, an instance it cannot read) proves nothing.
	scan(ctx context.Context) (found bool, scanned int, err error)
	// explain renders the last verdict: the refutation's proof, the
	// proof of emptiness, or the witness.
	explain() string
}

// errStop ends an enumeration at its witness.
var errStop = errors.New("core: witness found")

// retrieve runs r under one query.eval span beneath ctx, and reports
// whether it found a witness. A refuted retrieval counts in
// muse_query_refuted_total, one whose scan finished without a witness
// in muse_query_decided_total.
func (e *Env) retrieve(ctx context.Context, r retriever) bool {
	if ctx.Err() != nil {
		return false
	}
	o := e.Obs
	var start time.Time
	var sp *obs.Span
	detail := obs.DetailFromContext(ctx)
	if o != nil {
		start = time.Now()
		sp, ctx = o.StartCtx(ctx, obs.SpanQueryEval)
		o.Counter(obs.MQueryEvals).Inc()
	}
	verdict, found, scanned := "", false, 0
	if r.refute() {
		verdict = "refuted"
	} else {
		var err error
		if found, scanned, err = r.scan(ctx); err == nil && !found {
			verdict = "decided"
		}
		found = found && err == nil
	}
	if o != nil {
		switch verdict {
		case "refuted":
			o.Counter(obs.MQueryRefuted).Inc()
		case "decided":
			o.Counter(obs.MQueryDecided).Inc()
		}
		o.Counter(obs.MQueryRowsScanned).Add(int64(scanned))
		if found {
			o.Counter(obs.MQueryRowsReturned).Inc()
		}
		o.Histogram(obs.HQueryEvalSeconds).Observe(time.Since(start).Seconds())
		if verdict != "" {
			sp.Attr(verdict, true)
		}
		if detail && (found || verdict != "") {
			sp.Attr("explain", r.explain())
		}
		sp.Attr("matches", count(found)).Attr("scanned", int64(scanned)).End()
	}
	return found
}

func count(b bool) int {
	if b {
		return 1
	}
	return 0
}

// probeRetrieval is a Muse-G probe's retrieval on its two-copy tableau:
// the witness is two rows of the mapping's assignment table that keep
// the within-copy classes, agree on the cross-copy ones and differ on
// the must-differ pairs. A probe of the decided shape
// (tableau.decidedShape) is scanned in one pass (assignTable.witness),
// any other by the general pair scan under its budget.
type probeRetrieval struct {
	env *Env
	tb  *tableau
	// neq is the retrieval's must-differ slot pairs, flattened.
	neq []int32
	// probe is the copy-1 slot of the probed attribute, or -1 when the
	// copies differ on more than one attribute.
	probe int32
	// The last verdict: a refutation, or the scan's table, its shape
	// (nil for the decided shape) and witness rows a and b (-1: none).
	refuted bool
	t       *assignTable
	shape   *pairShape
	a, b    int
}

// newProbeRetrieval prepares the retrieval of tb's current probe, whose
// copies must differ on the slot pairs of neq. A probe whose copies
// differ on one attribute has one pair, its copy-1 slot and that slot's
// twin.
func newProbeRetrieval(env *Env, tb *tableau, neq []int32) probeRetrieval {
	r := probeRetrieval{env: env, tb: tb, neq: neq, probe: -1, a: -1, b: -1}
	if tb.copies == 2 && len(neq) == 2 {
		r.probe = neq[0]
	}
	return r
}

// refute implements retriever. The tableau only reads an instance that
// lays the for clause's sets out as the mapping's source does; the scan
// reports any other.
func (r *probeRetrieval) refute() bool {
	r.refuted = r.tb.laidOutIn(r.env.Real.Cat) && r.tb.refute(r.env.store(), r.neq)
	return r.refuted
}

// scan implements retriever.
func (r *probeRetrieval) scan(ctx context.Context) (bool, int, error) {
	r.a, r.b, r.shape = -1, -1, nil
	t, err := r.env.assignments(ctx, r.tb)
	if err != nil {
		return false, 0, err
	}
	r.t = t
	var scanned int
	if r.probe >= 0 && r.tb.decidedShape() {
		r.a, r.b, scanned = t.witness(&r.env.tables.hash, r.tb.keys, r.tb.filter, r.probe)
	} else {
		r.shape = t.pairShape(r.tb, r.neq)
		r.a, r.b, scanned, err = t.pairs(ctx, r.shape)
	}
	return r.a >= 0, scanned, err
}

// explain implements retriever:
//
//	witness: rows 12 and 40 of 4548 assignments of m5 agree on 6 classes
//	decided: x_1 != x_2; no two of 4548 assignments of m5 that keep 2 within-copy equalities agree on 6 classes and differ
func (r *probeRetrieval) explain() string {
	if r.refuted {
		return r.tb.explainRefuted()
	}
	t, classes := r.t, len(r.tb.keys)
	if r.shape != nil {
		classes = len(r.shape.key[0])
	}
	switch {
	case r.a >= 0:
		return fmt.Sprintf("witness: rows %d and %d of %d assignments of %s agree on %d classes", r.a+1, r.b+1, t.len(), t.m.Name, classes)
	case r.shape == nil:
		s := r.probe
		return fmt.Sprintf("decided: %s != %s; no two of %d assignments of %s that keep %d within-copy equalities agree on %d classes and differ",
			r.tb.classID(s), r.tb.classID(r.tb.at(2, s)), t.len(), t.m.Name, len(r.tb.filter)/2, classes)
	}
	return fmt.Sprintf("decided: no two of %d assignments of %s agree on %d classes and differ on %d pairs", t.len(), t.m.Name, classes, len(r.neq)/2)
}

// rows returns the witness, copy 1's row first.
func (r *probeRetrieval) rows() [][]*instance.Tuple {
	return [][]*instance.Tuple{r.t.row(r.a), r.t.row(r.b)}
}

// choiceRetrieval is Muse-D's retrieval on the one-copy tableau of an
// ambiguous mapping: the witness is the first assignment of common, the
// mapping with its or-groups dropped, in firing order, that keeps the
// tableau's classes and whose or-alternatives differ pairwise. The scan
// stops at it and keeps no table.
type choiceRetrieval struct {
	env    *Env
	tb     *tableau
	common *mapping.Mapping
	// prog is common compiled for its source catalog.
	prog *chase.Program
	// neq is the alternatives' must-differ slot pairs, flattened.
	neq []int32
	// The last verdict: a refutation, or the witness row (nil: none),
	// the rows read and the within-copy equalities checked.
	refuted bool
	row     []*instance.Tuple
	n, eqs  int
}

// refute implements retriever.
func (r *choiceRetrieval) refute() bool {
	r.refuted = r.tb.laidOutIn(r.env.Real.Cat) && r.tb.refute(r.env.store(), r.neq)
	return r.refuted
}

// scan implements retriever.
func (r *choiceRetrieval) scan(ctx context.Context) (bool, int, error) {
	r.row, r.n = nil, 0
	prog, err := r.env.realProgram(r.tb, r.common, r.prog)
	if err != nil {
		return false, 0, err
	}
	cols, joined := rowLayout(r.tb)
	eqs := within(r.tb, cols, joined)
	r.eqs = len(eqs) / 2
	differ := make([]column, len(r.neq))
	for k, s := range r.neq {
		differ[k] = cols[s]
	}
	err = eachRow(ctx, prog, r.env.Real, cols, func(row []*instance.Tuple) error {
		r.n++
		if keeps(row, eqs) && differs(row, differ) {
			r.row = slices.Clone(row)
			return errStop
		}
		return nil
	})
	if err == errStop {
		return true, r.n, nil
	}
	return false, r.n, err
}

// explain implements retriever.
func (r *choiceRetrieval) explain() string {
	switch {
	case r.refuted:
		return r.tb.explainRefuted()
	case r.row != nil:
		return fmt.Sprintf("witness: row %d of the assignments of %s keeps %d within-copy equalities and differs on %d alternative pairs", r.n, r.common.Name, r.eqs, len(r.neq)/2)
	}
	return fmt.Sprintf("decided: none of %d assignments of %s keeps %d within-copy equalities and differs on %d alternative pairs", r.n, r.common.Name, r.eqs, len(r.neq)/2)
}

// danglingRetrieval is the join wizard's retrieval of a dangling
// example: the first row of the variant's assignments, in firing
// order, that keeps the variant tableau's classes and that no
// assignment of the full mapping keeping its classes extends, on the
// kept generators' atom values. It is one hash semi-join.
type danglingRetrieval struct {
	env           *Env
	variant, full *tableau
	// The last witness (nil: none), and the rows read of each mapping.
	row             []*instance.Tuple
	variants, fulls int
}

// refute implements retriever: a dangling example requires no value to
// differ, so nothing refutes it.
func (r *danglingRetrieval) refute() bool { return false }

// scan implements retriever.
func (r *danglingRetrieval) scan(ctx context.Context) (bool, int, error) {
	r.row, r.variants, r.fulls = nil, 0, 0
	fprog, err := r.env.realProgram(r.full, r.full.m, nil)
	if err != nil {
		return false, 0, err
	}
	vprog, err := r.env.realProgram(r.variant, r.variant.m, nil)
	if err != nil {
		return false, 0, err
	}
	// The kept generators' atoms, in the variant's for-clause order: in
	// a full row (fkey) and in a variant row (vkey).
	var fkey, vkey []column
	for i, g := range r.variant.m.For {
		gi := int32(r.full.genIndex(g.Var))
		for k := range r.full.info.SrcVars[g.Var].Atoms {
			fkey = append(fkey, column{gi, int32(k)})
			vkey = append(vkey, column{int32(i), int32(k)})
		}
	}
	var extended instance.VecMap[struct{}]
	var key []instance.Value
	read := func(row []*instance.Tuple, cols []column) []instance.Value {
		key = key[:0]
		for _, c := range cols {
			key = append(key, c.of(row))
		}
		return key
	}
	cols, joined := rowLayout(r.full)
	eqs := within(r.full, cols, joined)
	err = eachRow(ctx, fprog, r.env.Real, cols, func(row []*instance.Tuple) error {
		r.fulls++
		if keeps(row, eqs) {
			extended.Put(read(row, fkey), struct{}{})
		}
		return nil
	})
	if err != nil {
		return false, r.fulls, err
	}
	cols, joined = rowLayout(r.variant)
	eqs = within(r.variant, cols, joined)
	err = eachRow(ctx, vprog, r.env.Real, cols, func(row []*instance.Tuple) error {
		r.variants++
		if keeps(row, eqs) {
			if _, ok := extended.Get(read(row, vkey)); !ok {
				r.row = slices.Clone(row)
				return errStop
			}
		}
		return nil
	})
	if err == errStop {
		return true, r.fulls + r.variants, nil
	}
	return false, r.fulls + r.variants, err
}

// explain implements retriever.
func (r *danglingRetrieval) explain() string {
	if r.row != nil {
		return fmt.Sprintf("witness: row %d of the assignments of %s extends to none of %d assignments of %s", r.variants, r.variant.m.Name, r.fulls, r.full.m.Name)
	}
	return fmt.Sprintf("decided: each of %d assignments of %s extends to one of %d assignments of %s", r.variants, r.variant.m.Name, r.fulls, r.full.m.Name)
}

// within returns the pairs of columns a row must carry one value in to
// realize copy 1 of tb's partition: each slot with its class's least
// slot, less the pairs the satisfy clause joins, which the enumeration
// checked.
func within(tb *tableau, cols []column, joined []int32) []column {
	least := tb.leastSlots()[0]
	var eqs []column
	for s := int32(0); s < tb.width; s++ {
		if g := least[tb.find(s)]; g != s && joined[s] != joined[g] {
			eqs = append(eqs, cols[s], cols[g])
		}
	}
	return eqs
}

// differs reports whether row r carries two values in each pair of
// columns of neq (flattened).
func differs(r []*instance.Tuple, neq []column) bool {
	for k := 0; k < len(neq); k += 2 {
		if instance.SameValue(neq[k].of(r), neq[k+1].of(r)) {
			return false
		}
	}
	return true
}

// Slot names one atom of one copy of a retrieval's tableau.
type Slot struct {
	Copy int
	Atom mapping.Expr
}

// ProbeDecision is one retrieval as a wizard settles it (DecideProbe,
// DecideChoice): its pattern and its verdict. The crosscheck harness
// compares each verdict with a brute-force scan of the pattern.
type ProbeDecision struct {
	// Classes partitions the retrieval's slots: a witness carries one
	// value in the slots of a class, and sets every slot.
	Classes [][]Slot
	// Differ lists the slot pairs whose values must differ.
	Differ [][2]Slot
	// Refuted reports whether the tableau refutes the retrieval from
	// the real instance's unique attributes.
	Refuted bool
	// Shaped reports whether a Muse-G probe has the decided shape, and
	// Spent whether its general scan spent its budget.
	Shaped, Spent bool
	// Rows is the witness, one row per copy (copy 1 first), each one
	// tuple per for-clause generator; nil when there is none.
	Rows [][]*instance.Tuple
}

// DecideProbe sets up m's two-copy probe whose copies differ on differ
// (the probed attribute first; differ is not empty), agree on confirmed
// and leave decidedOut free, as the Muse-G probe loop does under the
// source constraints src, and retrieves its witness from the store's
// instance as the wizard does, refuting it from the store's verdicts.
// ok is false when the constraints make the probe unconstructible.
func DecideProbe(m *mapping.Mapping, src *deps.Set, store *query.IndexStore, confirmed, decidedOut, differ []mapping.Expr) (d ProbeDecision, ok bool, err error) {
	w := NewGroupingWizard(src, store.Instance())
	w.Store = store
	tb, err := w.questionTableau(m)
	if err != nil {
		return d, false, err
	}
	out := make(map[mapping.Expr]bool, len(decidedOut))
	for _, e := range decidedOut {
		out[e] = true
	}
	if !probeSetup(tb, m.Poss(), confirmed, out, differ[0], differ[1:]) {
		return d, false, nil
	}
	r := newProbeRetrieval(&w.Env, tb, tb.differPairs(differ))
	d.Classes, d.Differ = tb.pattern(r.neq)
	if d.Refuted = r.refute(); d.Refuted {
		return d, true, nil
	}
	found, _, err := r.scan(context.Background())
	d.Shaped, d.Spent = r.shape == nil, err == errBudget
	switch {
	case d.Spent:
		return d, true, nil
	case err != nil:
		return d, false, err
	case found:
		d.Rows = r.rows()
	}
	return d, true, nil
}

// DecideChoice sets up the one-copy retrieval of Muse-D's example for
// the ambiguous mapping m under the source constraints src, as
// Disambiguate does, and retrieves its witness from the store's
// instance, refuting it from the store's verdicts.
func DecideChoice(m *mapping.Mapping, src *deps.Set, store *query.IndexStore) (ProbeDecision, error) {
	w := NewDisambiguationWizard(src, store.Instance())
	w.Store = store
	r, err := w.choiceRetrieval(m)
	if err != nil {
		return ProbeDecision{}, err
	}
	var d ProbeDecision
	d.Classes, d.Differ = r.tb.pattern(r.neq)
	if d.Refuted = r.refute(); d.Refuted {
		return d, nil
	}
	found, _, err := r.scan(context.Background())
	if found {
		d.Rows = [][]*instance.Tuple{r.row}
	}
	return d, err
}
