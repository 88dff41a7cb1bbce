package crosscheck

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"muse/internal/instance"
	"muse/internal/nr"
	"muse/internal/obs"
	"muse/internal/query"
)

// queryCap bounds the per-top-set tuple count the query oracle probes
// against: the naive scan reference is O(n^atoms), so larger cases are
// deterministically truncated first.
const queryCap = 100

// CheckQuery runs the query oracle: seeded random conjunctive probes
// over the base-case instances (and mutated variants), each evaluated
// by the naive scan reference and by the cost-based planner — in full,
// with Limit, and via First — and compared.
func CheckQuery(cfg Config) []Failure {
	fails, _ := checkQueries(cfg)
	return fails
}

// checkQueries is CheckQuery, also returning how many probes the
// planned evaluation refuted without a search.
func checkQueries(cfg Config) ([]Failure, int64) {
	cfg = cfg.withDefaults()
	r := rand.New(rand.NewSource(cfg.Seed + 1))
	// The two-copy probes draw from their own stream, so the general
	// probes are the same with and without them.
	rc := rand.New(rand.NewSource(cfg.Seed + 2))
	o := &obs.Obs{Reg: obs.NewRegistry()}
	var fails []Failure
	for _, c := range ChaseCases(cfg) {
		// The naive reference scans without indexes, so bound the
		// instance: keep the first queryCap tuples of every top set
		// (deterministic, subtrees included).
		src := c.Src
		for _, st := range src.Cat.TopLevel() {
			if src.Top(st).Len() > queryCap {
				src = filterTop(src, func(_ *nr.SetType, i int) bool { return i < queryCap })
				break
			}
		}
		c = &Case{Name: c.Name, Src: src, Ms: c.Ms}
		store := query.NewIndexStore(c.Src)
		for qi := 0; qi < cfg.Queries; qi++ {
			if q := RandomQuery(r, c.Src); q != nil {
				if f := checkOneQuery(fmt.Sprintf("%s/q%d", c.Name, qi), q, c.Src, store, o, r); f != nil {
					f.Seed = cfg.Seed
					fails = append(fails, *f)
				}
			}
			if q := copyProbe(rc, c.Src); q != nil {
				if f := checkOneQuery(fmt.Sprintf("%s/c%d", c.Name, qi), q, c.Src, store, o, rc); f != nil {
					f.Seed = cfg.Seed
					fails = append(fails, *f)
				}
			}
		}
		cfg.logf("  query case %s: %d probes, %d two-copy probes", c.Name, cfg.Queries, cfg.Queries)
	}
	refuted := o.Reg.Get(obs.MQueryRefuted)
	cfg.logf("  query: %d probes refuted without a search", refuted)
	return fails, refuted
}

// checkOneQuery compares one probe's planned evaluations with the naive
// reference. The full planned evaluation reports onto o (nil: not at
// all).
func checkOneQuery(name string, q *query.Query, in *instance.Instance, store *query.IndexStore, o *obs.Obs, r *rand.Rand) *Failure {
	fail := func(detail string) *Failure {
		return &Failure{Oracle: "query", Case: name, Detail: detail, Repro: reproQuery(q, in)}
	}
	var ref, planned []query.Match
	errRef := guard(func() error { var err error; ref, err = q.EvalNaive(in); return err })
	errPlan := guard(func() error {
		var err error
		planned, err = q.Eval(in, query.Options{Store: store, Obs: o})
		return err
	})
	if (errRef == nil) != (errPlan == nil) {
		return fail(fmt.Sprintf("error behavior diverged: naive=%v planned=%v", errRef, errPlan))
	}
	if errRef != nil {
		return nil
	}
	refEnc, planEnc := encodeMatches(q, ref), encodeMatches(q, planned)
	// Result sets must agree as sets; the planner reorders atoms, so
	// only the sorted encodings are comparable to the naive order.
	if !sameSorted(refEnc, planEnc) {
		return fail(fmt.Sprintf("planned result set differs from naive scan: %d vs %d matches\nnaive:\n%s\nplanned:\n%s",
			len(refEnc), len(planEnc), strings.Join(sorted(refEnc), "\n"), strings.Join(sorted(planEnc), "\n")))
	}
	// Limit k returns the first k planned matches (prefix semantics).
	if len(planned) > 0 {
		k := 1 + r.Intn(len(planned))
		var lim []query.Match
		if err := guard(func() error { var err error; lim, err = q.Eval(in, query.Options{Store: store, Limit: k}); return err }); err != nil {
			return fail(fmt.Sprintf("Limit=%d evaluation failed: %v", k, err))
		}
		limEnc := encodeMatches(q, lim)
		if len(limEnc) != k || strings.Join(limEnc, "\x1e") != strings.Join(planEnc[:k], "\x1e") {
			return fail(fmt.Sprintf("Limit=%d is not the planned prefix: got %d matches", k, len(limEnc)))
		}
	}
	// First finds a match iff the reference result set is non-empty.
	var found bool
	if err := guard(func() error {
		_, ok, err := q.First(in, query.Options{Store: store})
		found = ok
		return err
	}); err != nil {
		return fail(fmt.Sprintf("First failed: %v", err))
	}
	if found != (len(ref) > 0) {
		return fail(fmt.Sprintf("First found=%v but naive scan has %d matches", found, len(ref)))
	}
	return nil
}

// RandomQuery draws a valid conjunctive probe over the instance's
// catalog: 1–3 atoms (top-level or nested through an earlier atom),
// shared value variables forming joins, pins sampled mostly from
// values actually present (so probes hit data), and up to one Neq
// pair. Returns nil when the catalog has no top-level sets.
func RandomQuery(r *rand.Rand, in *instance.Instance) *query.Query {
	cat := in.Cat
	tops := cat.TopLevel()
	if len(tops) == 0 {
		return nil
	}
	varPool := []string{"x", "y", "z", "w"}
	q := &query.Query{Src: cat}
	type boundAtom struct {
		v  string
		st *nr.SetType
	}
	var atoms []boundAtom
	used := make(map[string]bool)
	n := 1 + r.Intn(3)
	for i := 0; i < n; i++ {
		var a query.Atom
		var st *nr.SetType
		// Half the time, descend into a nested set of an earlier atom.
		var nestable []boundAtom
		for _, b := range atoms {
			if len(b.st.SetFields) > 0 {
				nestable = append(nestable, b)
			}
		}
		if len(nestable) > 0 && r.Float64() < 0.5 {
			p := nestable[r.Intn(len(nestable))]
			f := p.st.SetFields[r.Intn(len(p.st.SetFields))]
			st = p.st.Child(f)
			a = query.Atom{Var: fmt.Sprintf("t%d", i), Parent: p.v, Field: f}
		} else {
			st = tops[r.Intn(len(tops))]
			a = query.Atom{Var: fmt.Sprintf("t%d", i), Set: st.Path}
		}
		a.Bind = make(map[string]string)
		a.Pin = make(map[string]instance.Value)
		for _, attr := range st.Atoms {
			roll := r.Float64()
			switch {
			case roll < 0.45:
				v := varPool[r.Intn(len(varPool))]
				a.Bind[attr] = v
				used[v] = true
			case roll < 0.60:
				a.Pin[attr] = samplePin(r, in, st, attr)
			}
		}
		atoms = append(atoms, boundAtom{v: a.Var, st: st})
		q.Atoms = append(q.Atoms, a)
	}
	var uv []string
	for v := range used {
		uv = append(uv, v)
	}
	sort.Strings(uv)
	if len(uv) >= 2 && r.Float64() < 0.4 {
		i := r.Intn(len(uv))
		j := r.Intn(len(uv) - 1)
		if j >= i {
			j++
		}
		q.Neq = append(q.Neq, [2]string{uv[i], uv[j]})
	}
	return q
}

// copyProbe draws the two-copy shape of Muse-G's probes (the Q_Ie of
// Sec. III-A): a random top-level set twice, one shared variable per
// attribute of a random subset, copy-specific variables on the other
// attributes, and an inequality on one copy-specific pair. When the
// shared attributes include a list the instance holds unique, the
// query engine refutes the probe without a search. Returns nil when
// the drawn set has no atomic attribute or the catalog no top-level
// set.
func copyProbe(r *rand.Rand, in *instance.Instance) *query.Query {
	tops := in.Cat.TopLevel()
	if len(tops) == 0 {
		return nil
	}
	st := tops[r.Intn(len(tops))]
	if len(st.Atoms) == 0 {
		return nil
	}
	probe := st.Atoms[r.Intn(len(st.Atoms))]
	c1 := query.Atom{Var: "t0", Set: st.Path, Bind: make(map[string]string, len(st.Atoms))}
	c2 := query.Atom{Var: "t1", Set: st.Path, Bind: make(map[string]string, len(st.Atoms))}
	for _, attr := range st.Atoms {
		if attr != probe && r.Float64() < 0.5 {
			c1.Bind[attr], c2.Bind[attr] = "v_"+attr, "v_"+attr
		} else {
			c1.Bind[attr], c2.Bind[attr] = "v1_"+attr, "v2_"+attr
		}
	}
	return &query.Query{
		Src:   in.Cat,
		Atoms: []query.Atom{c1, c2},
		Neq:   [][2]string{{"v1_" + probe, "v2_" + probe}},
	}
}

// samplePin picks a pin value: usually one actually present in the
// set's occurrences for the attribute, sometimes an adversarial
// constant that (probably) misses.
func samplePin(r *rand.Rand, in *instance.Instance, st *nr.SetType, attr string) instance.Value {
	if r.Float64() < 0.7 {
		var vals []instance.Value
		for _, t := range in.AllTuples(st) {
			if v := t.Get(attr); v != nil {
				vals = append(vals, v)
			}
		}
		if len(vals) > 0 {
			return vals[r.Intn(len(vals))]
		}
	}
	return instance.C(adversarialValues[r.Intn(len(adversarialValues))])
}

// encodeMatches renders each match deterministically: the matched
// tuple per atom (in original atom order) plus the value bindings,
// sorted by variable.
func encodeMatches(q *query.Query, ms []query.Match) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		var b strings.Builder
		for ai, t := range m.Tuples {
			if ai > 0 {
				b.WriteByte('|')
			}
			b.WriteString(q.Atoms[ai].Var)
			b.WriteByte('=')
			if t != nil {
				b.WriteString(t.Key())
			}
		}
		var vars []string
		for v := range m.Values {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		for _, v := range vars {
			b.WriteByte('|')
			b.WriteString(v)
			b.WriteByte(':')
			if m.Values[v] != nil {
				b.WriteString(m.Values[v].Key())
			}
		}
		out[i] = b.String()
	}
	return out
}

func sorted(xs []string) []string {
	ys := append([]string(nil), xs...)
	sort.Strings(ys)
	return ys
}

func sameSorted(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	as, bs := sorted(a), sorted(b)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// reproQuery renders a probe and its instance for a failure report.
func reproQuery(q *query.Query, in *instance.Instance) string {
	var b strings.Builder
	fmt.Fprintf(&b, "query over %s:\n", in.Schema.Name)
	for _, a := range q.Atoms {
		if a.Parent == "" {
			fmt.Fprintf(&b, "  atom %s in %s", a.Var, a.Set)
		} else {
			fmt.Fprintf(&b, "  atom %s in %s.%s", a.Var, a.Parent, a.Field)
		}
		var parts []string
		for _, attr := range sortedKeys(a.Bind) {
			parts = append(parts, fmt.Sprintf("%s→%s", attr, a.Bind[attr]))
		}
		for _, attr := range sortedPinKeys(a.Pin) {
			parts = append(parts, fmt.Sprintf("%s=%q", attr, a.Pin[attr]))
		}
		if len(parts) > 0 {
			fmt.Fprintf(&b, " [%s]", strings.Join(parts, ", "))
		}
		b.WriteByte('\n')
	}
	for _, nq := range q.Neq {
		fmt.Fprintf(&b, "  neq %s != %s\n", nq[0], nq[1])
	}
	fmt.Fprintf(&b, "--- instance ---\n%s", in)
	return b.String()
}

func sortedKeys(m map[string]string) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func sortedPinKeys(m map[string]instance.Value) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
