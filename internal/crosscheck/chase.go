package crosscheck

import (
	"fmt"

	"muse/internal/chase"
	"muse/internal/homo"
	"muse/internal/instance"
	"muse/internal/nr"
	"muse/internal/parser"
)

// CheckChase runs the chase oracle: on every case, Chase and
// NaiveChase must agree up to isomorphism. Panics and error-behavior
// mismatches count as failures too.
func CheckChase(cfg Config) []Failure {
	cfg = cfg.withDefaults()
	var fails []Failure
	for _, c := range ChaseCases(cfg) {
		cfg.logf("  chase case %s (%d tuples, %d mappings)", c.Name, c.Src.TupleCount(), len(c.Ms))
		if f := checkChaseCase(c); f != nil {
			f.Seed = cfg.Seed
			fails = append(fails, *f)
		}
	}
	return fails
}

// naiveBudget bounds the estimated leaf visits of one NaiveChase call.
// Generate-and-test is exponential in the generator count, so the
// oracle runs on a downsampled instance when a case exceeds it.
const naiveBudget = 2e6

// naiveCost estimates NaiveChase's leaf visits: per mapping, the
// product of the generators' candidate pool sizes (nested generators
// approximated by their set's average occurrence size).
func naiveCost(c *Case) float64 {
	total := 0.0
	for _, m := range c.Ms {
		info, err := m.Analyze()
		if err != nil {
			continue
		}
		cost := 1.0
		for _, g := range m.For {
			st := info.SrcVars[g.Var]
			n := float64(len(c.Src.AllTuples(st)))
			if g.Parent != "" {
				if occs := len(c.Src.Occurrences(st)); occs > 0 {
					n /= float64(occs)
				}
			}
			if n > 1 {
				cost *= n
			}
		}
		total += cost
	}
	return total
}

// naiveSized returns a case NaiveChase can afford: the case itself
// when it fits the budget, otherwise a deterministic downsample that
// keeps only the first k tuples of every top-level set, halving k
// until the estimate fits.
func naiveSized(c *Case) *Case {
	if naiveCost(c) <= naiveBudget {
		return c
	}
	for limit := 64; limit >= 1; limit /= 2 {
		n := limit
		cand := &Case{
			Name: fmt.Sprintf("%s-cap%d", c.Name, n),
			Src:  filterTop(c.Src, func(st *nr.SetType, i int) bool { return i < n }),
			Ms:   c.Ms,
		}
		if naiveCost(cand) <= naiveBudget {
			return cand
		}
	}
	return &Case{Name: c.Name + "-cap0", Src: instance.New(c.Src.Cat), Ms: c.Ms}
}

// checkChaseCase cross-checks one case, possibly on a downsampled
// copy; nil means agreement.
func checkChaseCase(c *Case) *Failure {
	c = naiveSized(c)
	var out, ref *instance.Instance
	errOut := guard(func() error { var err error; out, err = chase.Chase(c.Src, c.Ms...); return err })
	errRef := guard(func() error { var err error; ref, err = NaiveChase(c.Src, c.Ms...); return err })
	if (errOut == nil) != (errRef == nil) {
		return &Failure{
			Oracle: "chase", Case: c.Name,
			Detail: fmt.Sprintf("error behavior diverged: chase=%v naive=%v", errOut, errRef),
			Repro:  reproCase(c),
		}
	}
	if errOut != nil {
		return nil // both agree the input is invalid
	}
	if !homo.Isomorphic(out, ref) {
		mc := minimizeChase(c, divergeNaive)
		mOut, _ := chase.Chase(mc.Src, mc.Ms...)
		mRef, _ := NaiveChase(mc.Src, mc.Ms...)
		repro := reproCase(mc)
		if mOut != nil && mRef != nil {
			repro += fmt.Sprintf("--- chase ---\n%s--- naive chase ---\n%s", mOut, mRef)
		}
		return &Failure{Oracle: "chase", Case: c.Name, Detail: "Chase and NaiveChase outputs are not isomorphic", Repro: repro}
	}
	return nil
}

// divergeNaive reports whether the chase/naive disagreement still
// reproduces on the (shrunken) case.
func divergeNaive(c *Case) bool {
	out, errO := chase.Chase(c.Src, c.Ms...)
	ref, errR := NaiveChase(c.Src, c.Ms...)
	if (errO == nil) != (errR == nil) {
		return true
	}
	return errO == nil && !homo.Isomorphic(out, ref)
}

// minimizeChase greedily shrinks the case's source instance while the
// divergence persists: it repeatedly tries removing one top-level
// tuple (subtrees included) and keeps any removal that still
// reproduces, until a fixpoint. The divergence predicate runs under
// guard-free calls — a panic during minimization just stops shrinking.
func minimizeChase(c *Case, diverges func(*Case) bool) *Case {
	cur := c
	stillDiverges := func(cand *Case) bool {
		out := false
		if guard(func() error { out = diverges(cand); return nil }) != nil {
			return true // a panic is the repro
		}
		return out
	}
	for shrunk := true; shrunk; {
		shrunk = false
		for _, st := range cur.Src.Cat.TopLevel() {
			n := cur.Src.Top(st).Len()
			for i := 0; i < n; i++ {
				cand := &Case{Name: cur.Name, Src: dropTopTuple(cur.Src, st, i), Ms: cur.Ms}
				if stillDiverges(cand) {
					cur = cand
					shrunk = true
					break // indexes shifted; rescan this set
				}
			}
		}
	}
	return cur
}

// dropTopTuple copies in without the idx-th tuple of st's top
// occurrence.
func dropTopTuple(in *instance.Instance, st *nr.SetType, idx int) *instance.Instance {
	return filterTop(in, func(top *nr.SetType, i int) bool { return top != st || i != idx })
}

// filterTop copies in, keeping only the top-level tuples keep accepts
// (by set type and position). Nested occurrences hang off surviving
// tuples' SetRefs, so the copy walks them from the survivors.
func filterTop(in *instance.Instance, keep func(st *nr.SetType, i int) bool) *instance.Instance {
	out := instance.New(in.Cat)
	var deepCopy func(dst *instance.SetVal, typ *nr.SetType, t *instance.Tuple)
	deepCopy = func(dst *instance.SetVal, typ *nr.SetType, t *instance.Tuple) {
		dst.Insert(t)
		for _, f := range typ.SetFields {
			ref, ok := t.Get(f).(*instance.SetRef)
			if !ok {
				continue
			}
			child := typ.Child(f)
			childOcc := out.EnsureSet(child, ref)
			if occ := in.Set(ref); occ != nil {
				for _, ct := range occ.Tuples() {
					deepCopy(childOcc, child, ct)
				}
			}
		}
	}
	for _, top := range in.Cat.TopLevel() {
		for i, t := range in.Top(top).Tuples() {
			if keep(top, i) {
				deepCopy(out.Top(top), top, t)
			}
		}
	}
	return out
}

// reproCase renders a case as text: the source instance and the
// mappings in Muse document syntax.
func reproCase(c *Case) string {
	s := fmt.Sprintf("case %s\n--- source instance ---\n%s--- mappings ---\n", c.Name, c.Src)
	for _, m := range c.Ms {
		s += parser.FormatMapping(m) + "\n"
	}
	return s
}
