package core

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"muse/internal/chase"
	"muse/internal/instance"
	"muse/internal/mapping"
	"muse/internal/obs"
)

// assignTable is a mapping's one-copy assignment table over the real
// instance: every assignment of its for clause that satisfies its
// satisfy clause, in the order the chase fires them, less those that
// leave an atom unset (an unset value equals nothing, so such a row
// realizes no pattern). Row i is rows[i*vars:(i+1)*vars], one tuple per
// for-clause generator.
//
// Muse-G's retrievals scan it for their witness pair (probeRetrieval),
// and an instance-only probe is implied exactly when no two rows that
// keep the satisfy and where equalities agree on the confirmed
// attributes and differ on the probed one (dataImplied).
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

// rowLayout returns where each copy-1 slot of tb lies in a row of its
// mapping's assignments, and the slot naming each one's class under the
// satisfy clause.
func rowLayout(tb *tableau) (cols []column, joined []int32) {
	cols, joined = make([]column, tb.width), make([]int32, tb.width)
	forSat := mapping.NewClasses(tb.m.ForSat)
	for x, s := range tb.slot {
		joined[s] = tb.slot[forSat.Find(x)]
	}
	for i := range tb.m.For {
		for k := range tb.info.SrcVars[tb.m.For[i].Var].Atoms {
			// Atoms take a tuple's first slots.
			cols[tb.first[i]+int32(k)] = column{int32(i), int32(k)}
		}
	}
	return cols, joined
}

// realProgram returns the chase of m, whose for clause is tb's, compiled
// for the real instance's catalog: prog when it was compiled for m.Src
// and the instance is of that catalog. An instance of another catalog
// is read only where it lays each set out as m.Src does.
func (e *Env) realProgram(tb *tableau, m *mapping.Mapping, prog *chase.Program) (*chase.Program, error) {
	switch {
	case e.Real.Cat == m.Src && prog != nil:
		return prog, nil
	case e.Real.Cat != m.Src && !tb.laidOutIn(e.Real.Cat):
		return nil, fmt.Errorf("core: mapping %s's sets are laid out differently in the real instance", m.Name)
	}
	return chase.Compile(m, e.Real.Cat)
}

// eachRow calls fn with every assignment prog fires on over real that
// sets every column of cols, in firing order. The row is reused across
// calls.
func eachRow(ctx context.Context, prog *chase.Program, real *instance.Instance, cols []column, fn func([]*instance.Tuple) error) error {
	return prog.EachAssignment(ctx, real, func(asg []*instance.Tuple) error {
		for _, c := range cols {
			if c.of(asg) == nil {
				return nil
			}
		}
		return fn(asg)
	})
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
	prog, err := e.realProgram(tb, m, tb.scenarios)
	if err != nil {
		return nil, err
	}
	t := &assignTable{m: m, real: e.Real, vars: len(m.For)}
	t.cols, t.joined = rowLayout(tb)
	for s := int32(0); s < tb.width; s++ {
		r := s
		for tb.sat[r] != r {
			r = tb.sat[r]
		}
		if r != s {
			t.eqs = append(t.eqs, s, r)
		}
	}
	err = eachRow(ctx, prog, e.Real, t.cols, func(asg []*instance.Tuple) error {
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

// witness finds the least pair of rows of t, in the witness order
// (DESIGN.md §7), that keep every pair of eqs equal, agree on the keys
// slots and differ on slot p: it hashes each such row on its keys into
// h, and stops at the first row that differs on p from its bucket's
// head, which is then the least row it pairs with. a is that head and b
// the row, or both are -1; scanned counts the rows it read.
func (t *assignTable) witness(h *rowHash, keys, eqs []int32, p int32) (a, b, scanned int) {
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
	for i := range t.len() {
		r := t.row(i)
		if !keeps(r, h.eqs) {
			continue
		}
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
					return int(e - 1), i, i + 1
				}
				break
			}
		}
	}
	return -1, -1, t.len()
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

// keeps reports whether row r carries one value in each pair of
// columns of eqs (flattened).
func keeps(r []*instance.Tuple, eqs []column) bool {
	for k := 0; k < len(eqs); k += 2 {
		if !instance.SameValue(eqs[k].of(r), eqs[k+1].of(r)) {
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

// searchBudget bounds the general pair scan: past this many pair tests
// it stops, and the retrieval falls back to its synthetic example. Work,
// not time, bounds it, so a retrieval gives the same example on any
// machine.
const searchBudget = 1 << 21

// errBudget reports a pair scan that spent its budget.
var errBudget = errors.New("core: pair scan budget spent")

// pairShape is a two-copy partition laid out for the general pair scan
// (assignTable.pairs), in columns of t's rows: within[c] holds the
// pairs a row must carry one value in to take copy c+1, key[c] one
// column per class that spans both copies, read in the row of copy c+1,
// and differ the must-differ pairs, each side the column and whether
// the copy-2 row holds it.
type pairShape struct {
	within, key [2][]column
	differ      []pairSide
}

type pairSide struct {
	col   column
	copy2 bool
}

// pairShape lays out tb's current partition, and the must-differ slot
// pairs of neq (flattened), for the general scan of t.
func (t *assignTable) pairShape(tb *tableau, neq []int32) *pairShape {
	sh := &pairShape{}
	least := tb.leastSlots()
	for s := int32(0); s < tb.width; s++ {
		for c := range 2 {
			if g := least[c][tb.find(tb.at(c+1, s))]; g != s && t.joined[s] != t.joined[g] {
				sh.within[c] = append(sh.within[c], t.cols[s], t.cols[g])
			}
		}
		if r := tb.find(s); least[0][r] == s && least[1][r] >= 0 {
			sh.key[0] = append(sh.key[0], t.cols[s])
			sh.key[1] = append(sh.key[1], t.cols[least[1][r]])
		}
	}
	for _, x := range neq {
		sh.differ = append(sh.differ, pairSide{t.cols[x%tb.width], x >= tb.width})
	}
	return sh
}

// pairs finds the least valid pair of rows for sh, in the witness
// order (DESIGN.md §7): a pair is valid when one row keeps copy 1's
// within pairs, the other copy 2's, the two agree on every key and
// differ on every differ pair. It hashes each row on its keys as either
// copy and tests, for each row in order, the earlier rows of the
// matching buckets in order, taking the earlier row as copy 1 first. a
// and b are copy 1's and copy 2's rows, or both -1; scanned counts the
// rows it read. Past searchBudget pair tests it stops with errBudget,
// and every 256 tests it polls ctx.
func (t *assignTable) pairs(ctx context.Context, sh *pairShape) (a, b, scanned int, err error) {
	var buckets [2]map[uint64][]int32
	buckets[0], buckets[1] = make(map[uint64][]int32), make(map[uint64][]int32)
	var key []instance.Value
	hash := func(r []*instance.Tuple, cols []column) uint64 {
		key = key[:0]
		for _, c := range cols {
			key = append(key, c.of(r))
		}
		return instance.HashValues(key)
	}
	// valid reports whether r1 as copy 1 and r2 as copy 2 agree on the
	// keys and differ on every differ pair.
	valid := func(r1, r2 []*instance.Tuple) bool {
		for k, c := range sh.key[0] {
			if !instance.SameValue(c.of(r1), sh.key[1][k].of(r2)) {
				return false
			}
		}
		val := func(s pairSide) instance.Value {
			if s.copy2 {
				return s.col.of(r2)
			}
			return s.col.of(r1)
		}
		for k := 0; k < len(sh.differ); k += 2 {
			if instance.SameValue(val(sh.differ[k]), val(sh.differ[k+1])) {
				return false
			}
		}
		return true
	}
	tests := 0
	test := func(r1, r2 []*instance.Tuple) (bool, error) {
		if tests == searchBudget {
			return false, errBudget
		}
		if tests++; tests%256 == 0 && ctx != nil {
			if err := ctx.Err(); err != nil {
				return false, err
			}
		}
		return valid(r1, r2), nil
	}
	for i := range t.len() {
		r := t.row(i)
		var fits [2]bool
		var hv [2]uint64
		// as[0] lists the earlier rows that may take copy 1 with r as
		// copy 2, as[1] those that may take copy 2 with r as copy 1.
		var as [2][]int32
		for c := range 2 {
			if fits[c] = keeps(r, sh.within[c]); fits[c] {
				hv[c] = hash(r, sh.key[c])
				as[1-c] = buckets[1-c][hv[c]]
			}
		}
		for len(as[0])+len(as[1]) > 0 {
			j := int32(-1)
			for c := range 2 {
				if len(as[c]) > 0 && (j < 0 || as[c][0] < j) {
					j = as[c][0]
				}
			}
			o := t.row(int(j))
			for c := range 2 {
				if len(as[c]) == 0 || as[c][0] != j {
					continue
				}
				as[c] = as[c][1:]
				r1, r2 := o, r
				if c == 1 {
					r1, r2 = r, o
				}
				ok, err := test(r1, r2)
				switch {
				case err != nil:
					return -1, -1, i + 1, err
				case ok && c == 0:
					return int(j), i, i + 1, nil
				case ok:
					return i, int(j), i + 1, nil
				}
			}
		}
		for c := range 2 {
			if fits[c] {
				buckets[c][hv[c]] = append(buckets[c][hv[c]], int32(i))
			}
		}
	}
	return -1, -1, t.len(), nil
}
