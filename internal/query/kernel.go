package query

import (
	"context"

	"muse/internal/instance"
)

// kernel is a planned query compiled for one evaluation: every name the
// search would otherwise look up per candidate tuple is resolved once.
// Attributes become slot positions (Tuple.ValAt), value variables
// become dense ids into the binding array, index-key parts become a
// pinned value or a variable id, pushed-down inequalities become id
// pairs, and a nested atom's parent set field becomes its slot. The
// per-atom slices are carved from a constant number of slabs, so
// compiling costs the same few allocations whatever the query's size.
type kernel struct {
	atoms []katom
	// names maps a variable id back to its name; Match.Values is built
	// from it when a match is recorded.
	names []string
	// back maps an execution position to the atom's original position.
	back []int
}

// katom is one compiled atom, in execution order.
type katom struct {
	// pinSlots/pinVals are the selection constants, in schema order.
	pinSlots []int
	pinVals  []instance.Value
	// bindSlots/bindIDs bind slot values to variable ids, in schema
	// order; a repeated id checks equality instead of binding.
	bindSlots []int
	bindIDs   []int
	// key is the index probe, one value per index attribute: a pin,
	// set here when keyIDs[k] is -1, or else the value of variable
	// keyIDs[k], which the search writes before each lookup. Both are
	// empty for nested and scanned atoms.
	keyIDs []int
	key    []instance.Value
	idx    *instance.Index
	// neq holds the variable-id pairs, flattened, whose inequality is
	// checked at this position.
	neq []int
	// parentPos is the parent atom's position (-1 for root atoms) and
	// fieldSlot the slot of the parent's set field.
	parentPos int
	fieldSlot int
	// scan is the top-level set's tuples when the atom neither probes
	// an index nor follows a parent.
	scan []*instance.Tuple
}

// compile resolves the plan against the store and the instance. The
// plan's order, tiers, index choices and inequality placement carry
// over unchanged, so the kernel enumerates exactly the matches the
// plan describes, in the same order.
func compile(p *planned, store *IndexStore, in *instance.Instance) *kernel {
	// Pass 1: size the slabs.
	nInts, nVals, nBinds := 0, 0, 0
	for pos := range p.plans {
		a, ap := &p.q.Atoms[pos], &p.plans[pos]
		nBinds += len(a.Bind)
		nInts += len(a.Pin) + 2*len(a.Bind) + len(ap.idxAttrs) + 2*len(ap.neq)
		nVals += len(a.Pin) + len(ap.idxAttrs)
	}
	k := &kernel{atoms: make([]katom, len(p.plans)), back: p.back}
	ints := make([]int, nInts)
	vals := make([]instance.Value, nVals)
	ids := make(map[string]int, nBinds)
	k.names = make([]string, 0, nBinds)
	carveInts := func(n int) []int {
		s := ints[:n:n]
		ints = ints[n:]
		return s
	}
	carveVals := func(n int) []instance.Value {
		s := vals[:n:n]
		vals = vals[n:]
		return s
	}
	// Pass 2: fill them, in execution order so variable ids follow the
	// order in which the search binds them.
	for pos := range p.plans {
		a, ap, ka := &p.q.Atoms[pos], &p.plans[pos], &k.atoms[pos]
		st := ap.st
		ka.pinSlots, ka.pinVals = carveInts(len(a.Pin))[:0], carveVals(len(a.Pin))[:0]
		ka.bindSlots, ka.bindIDs = carveInts(len(a.Bind))[:0], carveInts(len(a.Bind))[:0]
		for _, attr := range st.Atoms {
			if v, ok := a.Pin[attr]; ok {
				ka.pinSlots = append(ka.pinSlots, st.Slot(attr))
				ka.pinVals = append(ka.pinVals, v)
			}
			if vvar, ok := a.Bind[attr]; ok {
				id, seen := ids[vvar]
				if !seen {
					id = len(k.names)
					ids[vvar] = id
					k.names = append(k.names, vvar)
				}
				ka.bindSlots = append(ka.bindSlots, st.Slot(attr))
				ka.bindIDs = append(ka.bindIDs, id)
			}
		}
		ka.keyIDs, ka.key = carveInts(len(ap.idxAttrs)), carveVals(len(ap.idxAttrs))
		for i, attr := range ap.idxAttrs {
			if v, ok := a.Pin[attr]; ok {
				ka.keyIDs[i], ka.key[i] = -1, v
			} else {
				// The planner only indexes on variables bound earlier.
				ka.keyIDs[i] = ids[a.Bind[attr]]
			}
		}
		ka.neq = carveInts(2 * len(ap.neq))
		for i, ne := range ap.neq {
			// Pushed-down pairs are bound by this position.
			ka.neq[2*i], ka.neq[2*i+1] = ids[ne[0]], ids[ne[1]]
		}
		ka.parentPos = ap.parentPos
		switch {
		case ap.parentPos >= 0:
			ka.fieldSlot = p.plans[ap.parentPos].st.Slot(a.Field)
		case len(ap.idxAttrs) > 0:
			ka.idx = store.Index(st, ap.idxAttrs)
		default:
			ka.scan = in.Top(st).View()
		}
	}
	return k
}

// searchBudget bounds one search, counted in candidate tuples
// examined: the fixed retrieval budget of Sec. VI, counting work, not
// time, so a query's matches and error depend only on the instance.
// The largest search of a Sec. VI design at scale 0.1 examines about
// 92k candidates. At scale 1 the budget stops 17 empty TPCH G2 probes
// that run past 4M, and one that would find its example after 2.21M;
// 2^22 would let that one finish but doubles the cell's time. 2^21 is
// also homo's search budget.
const searchBudget = 1 << 21

// poller gates the abort checks of a search to one in every 256
// candidate tuples examined: the search budget (ErrBudget) and the
// caller's context (its Err()). Polling per candidate, not per
// recursion, bounds the work of a level whose candidates all fail to
// bind.
type poller struct {
	ctx   context.Context
	steps int
}

func (p *poller) aborted() error {
	p.steps++
	if p.steps&255 != 0 {
		return nil
	}
	if p.steps >= searchBudget {
		return ErrBudget
	}
	if p.ctx != nil {
		if err := p.ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// evalState is one run of a kernel: the binding array (indexed by
// variable id, nil = unbound), the undo stack of ids bound in order,
// and the matched tuple per execution position.
type evalState struct {
	k      *kernel
	in     *instance.Instance
	vals   []instance.Value
	undo   []int
	tuples []*instance.Tuple
	out    []Match
	limit  int
	poll   poller
	// scanned counts candidate tuples considered across the whole
	// search (feeds muse_query_rows_scanned_total).
	scanned int64
}

func newEvalState(k *kernel, in *instance.Instance, opt Options) *evalState {
	return &evalState{
		k: k, in: in,
		vals:   make([]instance.Value, len(k.names)),
		undo:   make([]int, 0, len(k.names)),
		tuples: make([]*instance.Tuple, len(k.atoms)),
		limit:  opt.Limit,
		poll:   poller{ctx: opt.Ctx},
	}
}

func (e *evalState) search(i int) error {
	if i == len(e.k.atoms) {
		// All atoms matched: inequalities were checked incrementally.
		e.record()
		return nil
	}
	a := &e.k.atoms[i]
	cands := e.candidates(a)
	e.scanned += int64(len(cands))
	for _, t := range cands {
		if err := e.poll.aborted(); err != nil {
			return err
		}
		mark := len(e.undo)
		if !e.bindTuple(a, t) {
			continue
		}
		e.tuples[i] = t
		err := e.search(i + 1)
		e.unbindTo(mark)
		if err != nil {
			return err
		}
		if e.limit > 0 && len(e.out) >= e.limit {
			return nil
		}
	}
	return nil
}

// record appends the current full binding as a match, reporting tuples
// in the caller's atom order.
func (e *evalState) record() {
	m := Match{
		Tuples: make([]*instance.Tuple, len(e.tuples)),
		Values: make(map[string]instance.Value, len(e.k.names)),
	}
	for pos, t := range e.tuples {
		m.Tuples[e.k.back[pos]] = t
	}
	for id, name := range e.k.names {
		m.Values[name] = e.vals[id]
	}
	e.out = append(e.out, m)
}

// candidates narrows the tuple pool for atom a following its plan:
// nested atoms read the occurrence their parent references, indexed
// atoms probe the store's (possibly composite) hash index with the
// atom's key, and the rest scan. An index bucket may hold tuples that
// only collide in hash; bindTuple rejects them, since it checks every
// index attribute's pin or bound variable. The returned slice is
// shared and read-only.
func (e *evalState) candidates(a *katom) []*instance.Tuple {
	if a.parentPos >= 0 {
		ref, _ := e.tuples[a.parentPos].ValAt(a.fieldSlot).(*instance.SetRef)
		if ref == nil {
			return nil
		}
		occ := e.in.Set(ref)
		if occ == nil {
			return nil
		}
		return occ.View()
	}
	if a.idx == nil {
		return a.scan
	}
	for k, id := range a.keyIDs {
		if id >= 0 {
			a.key[k] = e.vals[id]
		}
	}
	return a.idx.Lookup(a.key)
}

// bindTuple checks atom a's pins against tuple t, binds its variables
// (pushing newly bound ids onto the undo stack), and checks the
// inequalities pushed down to this position. On failure the stack is
// already unwound to its state at entry; on success the caller unwinds
// to its own mark when backtracking. A nil slot value never binds, so
// nil in the binding array always means unbound.
func (e *evalState) bindTuple(a *katom, t *instance.Tuple) bool {
	for k, slot := range a.pinSlots {
		if !instance.SameValue(t.ValAt(slot), a.pinVals[k]) {
			return false
		}
	}
	mark := len(e.undo)
	for k, slot := range a.bindSlots {
		v := t.ValAt(slot)
		if v == nil {
			e.unbindTo(mark)
			return false
		}
		id := a.bindIDs[k]
		if prev := e.vals[id]; prev != nil {
			if !instance.SameValue(prev, v) {
				e.unbindTo(mark)
				return false
			}
			continue
		}
		e.vals[id] = v
		e.undo = append(e.undo, id)
	}
	for k := 0; k < len(a.neq); k += 2 {
		if instance.SameValue(e.vals[a.neq[k]], e.vals[a.neq[k+1]]) {
			e.unbindTo(mark)
			return false
		}
	}
	return true
}

func (e *evalState) unbindTo(mark int) {
	for _, id := range e.undo[mark:] {
		e.vals[id] = nil
	}
	e.undo = e.undo[:mark]
}
