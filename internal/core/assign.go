package core

import (
	"context"
	"fmt"
	"slices"

	"muse/internal/chase"
	"muse/internal/deps"
	"muse/internal/instance"
	"muse/internal/mapping"
	"muse/internal/obs"
	"muse/internal/query"
)

// assignTable is a mapping's one-copy assignment table over the real
// instance: every assignment of its for clause that satisfies its
// satisfy clause, in the order the chase fires them, less those that
// leave an atom unset (the probe queries bind every atom, and an unset
// value never binds). Row i is rows[i*vars:(i+1)*vars], one tuple per
// for-clause generator.
//
// Two Muse-G decisions read it. A two-copy probe of the decided shape
// is empty exactly when no two rows that keep its within-copy classes
// agree on its cross-copy classes and differ on the probed slot
// (probeDecision), and an instance-only probe is implied exactly when no
// two rows that keep the satisfy and where equalities agree on the
// confirmed attributes and differ on the probed one (dataImplied).
type assignTable struct {
	m    *mapping.Mapping
	real *instance.Instance
	vars int
	rows []*instance.Tuple
	// cols locates each copy-1 tableau slot in a row: the generator
	// position and the slot of its tuple.
	cols []column
	// eqs pairs each copy-1 slot that sourceEqs merges into a class with
	// the class's root, flattened: the rows the chase fires on carry one
	// value per pair.
	eqs []int32
	// joined names each copy-1 slot's class under the satisfy clause,
	// whose joins the enumeration checked: every row carries one value
	// per class, so a scan skips the pairs within one.
	joined []int32
}

type column struct{ gen, slot int32 }

// of returns the column's value in row r.
func (c column) of(r []*instance.Tuple) instance.Value { return r[c.gen].ValAt(int(c.slot)) }

func (t *assignTable) len() int { return len(t.rows) / t.vars }

func (t *assignTable) row(i int) []*instance.Tuple { return t.rows[i*t.vars : (i+1)*t.vars] }

// assignTables is a session's assignment tables, one per mapping name,
// and the hash table their scans share.
type assignTables struct {
	byName map[string]*assignTable
	hash   rowHash
}

// assignments returns the session's assignment table of tb's mapping
// over the real instance, building it on first use, under a
// museg.table span beneath ctx. A mapping keeps its table across its
// grouping functions: WithSK changes no for or satisfy clause.
func (e *Env) assignments(ctx context.Context, tb *tableau) (*assignTable, error) {
	m := tb.m
	if t := e.tables.byName[m.Name]; t != nil && t.real == e.Real && sameSource(t.m, m) {
		return t, nil
	}
	sp, ctx := e.Obs.StartCtx(ctx, obs.SpanMuseGTable)
	defer sp.End()
	prog := tb.scenarios
	if e.Real.Cat != m.Src {
		// Like the probe queries, read an instance of another catalog
		// only where it lays each set out as m.Src does.
		if !tb.laidOutIn(e.Real.Cat) {
			return nil, fmt.Errorf("core: mapping %s's sets are laid out differently in the real instance", m.Name)
		}
		var err error
		if prog, err = chase.Compile(m, e.Real.Cat); err != nil {
			return nil, err
		}
	}
	t := &assignTable{m: m, real: e.Real, vars: len(m.For), cols: make([]column, tb.width), joined: make([]int32, tb.width)}
	forSat := mapping.NewClasses(m.ForSat)
	for x, s := range tb.slot {
		t.joined[s] = tb.slot[forSat.Find(x)]
	}
	for i := range m.For {
		for k := range tb.info.SrcVars[m.For[i].Var].Atoms {
			// Atoms take a tuple's first slots.
			t.cols[tb.first[i]+int32(k)] = column{int32(i), int32(k)}
		}
	}
	for s := int32(0); s < tb.width; s++ {
		r := s
		for tb.sat[r] != r {
			r = tb.sat[r]
		}
		if r != s {
			t.eqs = append(t.eqs, s, r)
		}
	}
	err := prog.EachAssignment(ctx, e.Real, func(asg []*instance.Tuple) error {
		for _, c := range t.cols {
			if c.of(asg) == nil {
				return nil
			}
		}
		t.rows = append(t.rows, asg...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sp.Attr("mapping", m.Name).Attr("rows", t.len())
	if e.tables.byName == nil {
		e.tables.byName = make(map[string]*assignTable)
	}
	e.tables.byName[m.Name] = t
	return t, nil
}

// sameSource reports whether a and b have one for clause and one
// satisfy clause, and so one assignment table.
func sameSource(a, b *mapping.Mapping) bool {
	return a.Src == b.Src && slices.Equal(a.ForSat, b.ForSat) &&
		slices.EqualFunc(a.For, b.For, func(x, y mapping.Gen) bool {
			return x.Var == y.Var && x.Parent == y.Parent && x.Field == y.Field && slices.Equal(x.Root, y.Root)
		})
}

// witness reports whether two rows of t that keep every pair of eqs
// equal agree on the keys slots and differ on slot p. It hashes each
// such row on its keys into h and stops at the first two rows in one
// bucket that differ on p; kept counts the rows it hashed.
func (t *assignTable) witness(h *rowHash, keys, eqs []int32, p int32) (found bool, kept int) {
	h.reset(t.len())
	mask := uint64(len(h.slots) - 1)
	h.cols, h.eqs = h.cols[:0], h.eqs[:0]
	for _, s := range keys {
		h.cols = append(h.cols, t.cols[s])
	}
	for k := 0; k < len(eqs); k += 2 {
		if a, b := eqs[k], eqs[k+1]; t.joined[a] != t.joined[b] {
			h.eqs = append(h.eqs, t.cols[a], t.cols[b])
		}
	}
	pc := t.cols[p]
rows:
	for i := range t.len() {
		r := t.row(i)
		for k := 0; k < len(h.eqs); k += 2 {
			if !instance.SameValue(h.eqs[k].of(r), h.eqs[k+1].of(r)) {
				continue rows
			}
		}
		kept++
		h.key = h.key[:0]
		for _, c := range h.cols {
			h.key = append(h.key, c.of(r))
		}
		hv := instance.HashValues(h.key)
		for j := hv & mask; ; j = (j + 1) & mask {
			e := h.slots[j]
			if e == 0 {
				h.slots[j], h.hashes[j] = int32(i+1), hv
				break
			}
			if o := t.row(int(e - 1)); h.hashes[j] == hv && agree(o, h.key, h.cols) {
				if !instance.SameValue(pc.of(o), pc.of(r)) {
					return true, kept
				}
				break
			}
		}
	}
	return false, kept
}

// agree reports whether row r carries key's values in cols.
func agree(r []*instance.Tuple, key []instance.Value, cols []column) bool {
	for k, c := range cols {
		if !instance.SameValue(c.of(r), key[k]) {
			return false
		}
	}
	return true
}

// rowHash is an open-addressing hash table of row numbers, cleared and
// reused by every scan of a session, so a warm scan allocates nothing.
type rowHash struct {
	slots  []int32  // row number + 1; 0 is empty
	hashes []uint64 // the key hash of each occupied slot
	// cols locates a scan's key slots in a row, eqs the pairs of slots
	// a row must carry one value in, and key holds the current row's
	// key values.
	cols, eqs []column
	key       []instance.Value
}

// reset empties the table and sizes it for rows entries at a load of
// at most one half.
func (h *rowHash) reset(rows int) {
	n := 8
	for n < 2*rows {
		n <<= 1
	}
	if cap(h.slots) < n {
		h.slots, h.hashes = make([]int32, n), make([]uint64, n)
	}
	h.slots, h.hashes = h.slots[:n], h.hashes[:n]
	clear(h.slots)
}

// probeDecision settles a retrieval on its tableau tb, for
// query.FirstDecided: it refutes the retrieval's query from the real
// instance's unique attributes (tableau.refute), and decides a Muse-G
// probe on its mapping's assignment table. A Muse-G probe query binds
// every atom of both copies to its tableau class and requires the
// probed slot's two classes to differ. When the probe has the decided
// shape (decidedShape), a match is exactly two rows of the table that
// keep the within-copy classes, agree on one slot of each cross-copy
// class and differ on the probed slot, so the scan is exact.
type probeDecision struct {
	env *Env
	tb  *tableau
	// neq is the retrieval's must-differ slot pairs, flattened.
	neq []int32
	// probe is the copy-1 slot of the probed attribute, or -1 when the
	// retrieval is no Muse-G probe whose copies differ on one attribute.
	probe int32
	// Whether the last verdict was a refutation, and the last scan's
	// table and count of kept rows, for Explain.
	refuted bool
	t       *assignTable
	kept    int
}

// newProbeDecision prepares the decision of tb's current retrieval,
// whose query requires the slot pairs of neq to differ. A Muse-G probe
// whose copies differ on one attribute has one pair, its copy-1 slot
// and that slot's twin.
func newProbeDecision(env *Env, tb *tableau, neq []int32) probeDecision {
	d := probeDecision{env: env, tb: tb, neq: neq, probe: -1}
	if tb.copies == 2 && len(neq) == 2 {
		d.probe = neq[0]
	}
	return d
}

// Refuted implements query.Decider. The tableau only reads an instance
// that lays the for clause's sets out as the mapping's source does; the
// search reports any other.
func (d *probeDecision) Refuted(store *query.IndexStore) bool {
	d.refuted = d.tb.laidOutIn(store.Instance().Cat) && d.tb.refute(store, d.neq)
	return d.refuted
}

// Empty implements query.Decider. A probe it cannot decide, or whose
// table it cannot build, is searched: the search sees the same
// cancellation, or reports what the table could not.
func (d *probeDecision) Empty(ctx context.Context) bool {
	_, empty, _ := d.decide(ctx)
	return empty
}

// decide reports whether the probe has the decided shape and, when it
// has, whether the table proves its query empty.
func (d *probeDecision) decide(ctx context.Context) (shaped, empty bool, err error) {
	if d.probe < 0 || !d.tb.decidedShape() {
		return false, false, nil
	}
	t, err := d.env.assignments(ctx, d.tb)
	if err != nil {
		return true, false, err
	}
	found, kept := t.witness(&d.env.tables.hash, d.tb.keys, d.tb.filter, d.probe)
	d.t, d.kept = t, kept
	return true, !found, nil
}

// Explain implements query.Decider, with the refutation's proof
// (tableau.explainRefuted) or the decision's:
//
//	decided: x_1 != x_2; 120 of 4548 assignments of m5 keep 2 within-copy equalities, no two that agree on 6 classes differ
func (d *probeDecision) Explain() string {
	if d.refuted {
		return d.tb.explainRefuted()
	}
	s := d.probe
	return fmt.Sprintf("decided: %s != %s; %d of %d assignments of %s keep %d within-copy equalities, no two that agree on %d classes differ",
		d.tb.classID(s), d.tb.classID(d.tb.at(2, s)), d.kept, d.t.len(), d.t.m.Name, len(d.tb.filter)/2, len(d.tb.keys))
}

// Atoms implements query.Decider: one atom per for-clause variable and
// copy.
func (d *probeDecision) Atoms() int { return d.tb.copies * len(d.tb.m.For) }

// ProbeDecision is one retrieval settled on its tableau (DecideProbe,
// DecideChoice).
type ProbeDecision struct {
	// Query is the retrieval's query, which the kernel searches when
	// nothing settles it.
	Query *query.Query
	// Refuted reports whether the tableau refutes Query from the real
	// instance's unique attributes.
	Refuted bool
	// Shaped reports whether the probe has the shape the assignment
	// table decides, and Empty whether the table proves Query empty
	// (false unless Shaped). DecideProbe decides refuted probes too.
	Shaped, Empty bool
}

// DecideProbe sets up m's two-copy probe whose copies differ on differ
// (the probed attribute first; differ is not empty), agree on confirmed
// and leave decidedOut free, as the Muse-G probe loop does under the
// source constraints src, refutes its query on the tableau and decides
// it on real's assignment table of m. ok is false when the constraints
// make the probe unconstructible. The crosscheck harness compares each
// verdict with the reference evaluator.
func DecideProbe(m *mapping.Mapping, src *deps.Set, real *instance.Instance, confirmed, decidedOut, differ []mapping.Expr) (d ProbeDecision, ok bool, err error) {
	w := NewGroupingWizard(src, real)
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
	pd := newProbeDecision(&w.Env, tb, tb.differPairs(differ))
	d.Query = tb.realQuery(pd.neq)
	d.Refuted = pd.Refuted(query.NewIndexStore(real))
	if d.Shaped, d.Empty, err = pd.decide(context.Background()); err != nil {
		return d, false, err
	}
	return d, true, nil
}

// DecideChoice sets up the one-copy retrieval of Muse-D's example for
// the ambiguous mapping m under the source constraints src, as
// Disambiguate does, and refutes its query on the tableau from real's
// unique attributes. Muse-D decides nothing on assignment tables, so
// Shaped and Empty are false.
func DecideChoice(m *mapping.Mapping, src *deps.Set, real *instance.Instance) ProbeDecision {
	tb := compileTableau(m, src, 1)
	pd := newProbeDecision(&Env{SrcDeps: src, Real: real}, tb, tb.choicePairs())
	return ProbeDecision{Query: tb.realQuery(pd.neq), Refuted: pd.Refuted(query.NewIndexStore(real))}
}
