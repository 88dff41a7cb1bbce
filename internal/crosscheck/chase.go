package crosscheck

import (
	"context"
	"fmt"
	"math/rand"

	"muse/internal/chase"
	"muse/internal/homo"
	"muse/internal/instance"
	"muse/internal/mapping"
	"muse/internal/nr"
	"muse/internal/parser"
)

// CheckChase runs the chase oracle: on every case and its regrouped
// twin (Regroup), Chase and NaiveChase must agree up to isomorphism,
// and each mapping's compiled program, run once as it stands and once
// per grouping function with random arguments, must give what ChaseCtx
// gives for the regrouped mapping, in the same insertion order. Panics
// and error-behavior mismatches count as failures too.
func CheckChase(cfg Config) []Failure {
	cfg = cfg.withDefaults()
	cases := ChaseCases(cfg)
	// Twins and program arguments draw from their own streams: the
	// cases the query oracle shares stay as they were.
	rg := rand.New(rand.NewSource(cfg.Seed + 3))
	for _, c := range cases {
		cases = append(cases, Regroup(rg, c))
	}
	rp := rand.New(rand.NewSource(cfg.Seed + 4))
	var fails []Failure
	for _, c := range cases {
		cfg.logf("  chase case %s (%d tuples, %d mappings)", c.Name, c.Src.TupleCount(), len(c.Ms))
		for _, f := range []*Failure{checkChaseCase(c), checkProgramCase(c, rp)} {
			if f != nil {
				f.Seed = cfg.Seed
				fails = append(fails, *f)
			}
		}
	}
	return fails
}

// checkProgramCase runs one compiled program per mapping of c over c's
// source: as the mapping stands, then for each grouping function with
// a random subset of poss (the empty one included) drawn from r. Each
// run must equal ChaseCtx of the correspondingly regrouped mapping, in
// insertion order; a mapping ChaseCtx refuses must not compile.
func checkProgramCase(c *Case, r *rand.Rand) *Failure {
	for _, m := range c.Ms {
		if detail := checkProgram(c, m, r); detail != "" {
			return &Failure{Oracle: "chase", Case: c.Name, Detail: "program of " + m.Name + " " + detail, Repro: reproCase(c)}
		}
	}
	return nil
}

// checkProgram is checkProgramCase for mapping m; it describes the
// first divergence, or returns "".
func checkProgram(c *Case, m *mapping.Mapping, r *rand.Rand) string {
	ctx := context.Background()
	var p *chase.Program
	errP := guard(func() (err error) { p, err = chase.Compile(m, c.Src.Cat); return err })
	var want *instance.Instance
	errW := guard(func() (err error) { want, err = chase.ChaseCtx(ctx, c.Src, nil, m); return err })
	if (errP == nil) != (errW == nil) {
		return fmt.Sprintf("error behavior diverged: Compile=%v ChaseCtx=%v", errP, errW)
	}
	if errP != nil {
		return ""
	}
	if d := compareRun(want, "as it stands", func() (*instance.Instance, error) { return p.Run(ctx, c.Src, nil) }); d != "" {
		return d
	}
	for _, sk := range m.SKs {
		fn, args := sk.SK.Fn, randomArgs(r, m.Poss())
		what := fmt.Sprintf("regrouped by %s%v", fn, args)
		if err := guard(func() (err error) { want, err = chase.ChaseCtx(ctx, c.Src, nil, m.WithSK(fn, args)); return err }); err != nil {
			return what + ": ChaseCtx failed: " + err.Error()
		}
		if d := compareRun(want, what, func() (*instance.Instance, error) { return p.RunWithSK(ctx, c.Src, nil, fn, args) }); d != "" {
			return d
		}
	}
	return ""
}

// compareRun runs a program, guarded, and describes how its output
// differs from want, or returns "".
func compareRun(want *instance.Instance, what string, runFn func() (*instance.Instance, error)) string {
	var got *instance.Instance
	if err := guard(func() (err error) { got, err = runFn(); return err }); err != nil {
		return what + " failed: " + err.Error()
	}
	if !sameInOrder(got, want) {
		return what + " differs from ChaseCtx"
	}
	return ""
}

// sameInOrder reports whether a and b hold the same occurrences in the
// same creation order, each with the same tuples in the same insertion
// order: the same bytes under any rendering.
func sameInOrder(a, b *instance.Instance) bool {
	as, bs := a.AllSets(), b.AllSets()
	if len(as) != len(bs) {
		return false
	}
	for i, x := range as {
		y := bs[i]
		if x.Type != y.Type || !instance.SameValue(x.ID, y.ID) || x.Len() != y.Len() {
			return false
		}
		yv := y.View()
		for k, t := range x.View() {
			if !instance.SameTuple(t, yv[k]) {
				return false
			}
		}
	}
	return true
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
