package core

import (
	"context"
	"errors"
	"testing"

	"muse/internal/instance"
	"muse/internal/mapping"
	"muse/internal/obs"
	"muse/internal/parser"
)

// budgetProbe sets up a probe whose copies differ on two attributes, so
// it takes the general pair scan, over a hand-built table of one
// bucket: n rows that all agree on both attributes, so every pair is
// tested in both role assignments and none differs.
func budgetProbe(t *testing.T, n int) (*GroupingWizard, *tableau, []mapping.Expr, *assignTable) {
	t.Helper()
	doc, err := parser.Parse(`
schema S { R: set of record { k: string, a: string, b: string } }
schema T { O: set of record { x: string, P: set of record { y: string } } }
mapping m {
  for r in S.R
  exists o in T.O, p in o.P
  where r.k = o.x and r.a = p.y and o.P = SKP(r.k, r.a, r.b)
}
`)
	if err != nil {
		t.Fatal(err)
	}
	m := doc.Mappings[0]
	// Two tuples that share k, so k is not unique and nothing refutes
	// the probe; the scan reads the hand-built table instead.
	real := instance.New(m.Src)
	real.MustInsertVals("R", "k", "a1", "b1")
	real.MustInsertVals("R", "k", "a2", "b2")
	w := NewGroupingWizard(nil, real)
	w.Obs = obs.New()
	tb, err := w.questionTableau(m)
	if err != nil {
		t.Fatal(err)
	}
	differ := exprs("r.a", "r.b")
	if !probeSetup(tb, m.Poss(), exprs("r.k"), nil, differ[0], differ[1:]) {
		t.Fatal("probe unconstructible")
	}
	table := &assignTable{m: m, real: real, vars: 1}
	table.cols, table.joined = rowLayout(tb)
	st := tb.info.SrcVars["r"]
	for range n {
		table.rows = append(table.rows, instance.NewTuple(st).Put("k", instance.C("k")).Put("a", instance.C("a")).Put("b", instance.C("b")))
	}
	w.tables.byName = map[string]*assignTable{m.Name: table}
	return w, tb, differ, table
}

// TestPairScanBudget: the general pair scan stops after searchBudget
// (2^21) pair tests. On the one-bucket table, 1,400 rows take 1,958,600
// tests, under the budget, so the scan reads every row and finds no
// pair; 1,500 rows would take 2,248,500, so the scan stops partway with
// errBudget.
func TestPairScanBudget(t *testing.T) {
	for _, c := range []struct {
		rows  int
		spent bool
	}{{1400, false}, {1500, true}} {
		_, tb, differ, table := budgetProbe(t, c.rows)
		a, b, scanned, err := table.pairs(context.Background(), table.pairShape(tb, tb.differPairs(differ)))
		if a >= 0 || b >= 0 || (err == errBudget) != c.spent || (err != nil && err != errBudget) || (scanned < c.rows) != c.spent {
			t.Errorf("%d rows: pair (%d, %d), %d rows scanned, %v; want no pair, the budget spent %v",
				c.rows, a, b, scanned, err, c.spent)
		}
	}
}

// TestPairScanBudgetShowsSynthetic: a retrieval whose scan spends its
// budget proves nothing. The question shows its synthetic example, and
// the retrieval counts as neither refuted nor decided.
func TestPairScanBudgetShowsSynthetic(t *testing.T) {
	const rows = 1500
	w, tb, differ, _ := budgetProbe(t, rows)
	var stats SKStats
	_, isReal := w.obtainExample(w.context(), tb, differ, &stats)
	reg := w.Obs.Reg
	if isReal || stats.SyntheticExamples != 1 || reg.Get(obs.MQueryEvals) != 1 || reg.Get(obs.MQueryRefuted) != 0 || reg.Get(obs.MQueryDecided) != 0 {
		t.Errorf("real %v, %d synthetic examples, %d evals, refuted %d, decided %d; want one synthetic example of one eval, neither refuted nor decided",
			isReal, stats.SyntheticExamples, reg.Get(obs.MQueryEvals), reg.Get(obs.MQueryRefuted), reg.Get(obs.MQueryDecided))
	}
	if scanned := reg.Get(obs.MQueryRowsScanned); scanned == 0 || scanned >= rows {
		t.Errorf("%d of %d rows scanned; want the scan stopped partway", scanned, rows)
	}
}

// pollCountdown is a context whose Err turns to Canceled after it has
// been polled n times.
type pollCountdown struct {
	context.Context
	n int
}

func (c *pollCountdown) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestPairScanCancelStopsPromptly: a context that dies once the
// retrieval has begun stops the pair scan at its first poll, 256 pair
// tests in. A full scan of the 1,000-row bucket would take 999,000
// tests and prove the probe empty; cancelled, it stops in row 17 (rows
// 0..15 take 240 tests), proves nothing and shows the synthetic
// example.
func TestPairScanCancelStopsPromptly(t *testing.T) {
	w, tb, differ, _ := budgetProbe(t, 1000)
	// The retrieval's up-front check is the one poll that passes.
	ctx := &pollCountdown{Context: context.Background(), n: 1}
	_, isReal := w.obtainExample(ctx, tb, differ, &SKStats{})
	reg := w.Obs.Reg
	if scanned := reg.Get(obs.MQueryRowsScanned); isReal || reg.Get(obs.MQueryDecided) != 0 || scanned == 0 || scanned > 17 {
		t.Errorf("real %v, decided %d, %d rows scanned; want a synthetic example, nothing decided, the scan stopped by row 17",
			isReal, reg.Get(obs.MQueryDecided), scanned)
	}
}

// TestPairScanPollsEvery256: the pair scan polls its context every 256
// pair tests, within a row as well as between rows: on a table of one
// bucket whose rows never differ on location, every pair is tested,
// twice, and a context that dies at its second poll stops the scan in
// the row of the 512th test, long before the end of the bucket.
func TestPairScanPollsEvery256(t *testing.T) {
	m := refuteMappings(t)["m1"]
	in := companies(m.Src, [][3]string{{"1", "A", "X"}, {"2", "A", "X"}})
	w := NewGroupingWizard(nil, in)
	tb, err := w.questionTableau(m)
	if err != nil {
		t.Fatal(err)
	}
	differ := exprs("c.cid", "c.location")
	if !probeSetup(tb, m.Poss(), exprs("c.cname"), nil, differ[0], differ[1:]) {
		t.Fatal("probe unconstructible")
	}
	table := &assignTable{m: m, real: in, vars: 1}
	table.cols, table.joined = rowLayout(tb)
	st := tb.info.SrcVars["c"]
	for range 100 {
		table.rows = append(table.rows, instance.NewTuple(st).Put("cid", instance.C("1")).Put("cname", instance.C("A")).Put("location", instance.C("X")))
	}
	_, _, scanned, err := table.pairs(&pollCountdown{Context: context.Background(), n: 1}, table.pairShape(tb, tb.differPairs(differ)))
	// The second poll, after 512 tests, cancels: rows 0..22 take 506.
	if !errors.Is(err, context.Canceled) || scanned != 24 {
		t.Errorf("scan stopped after %d rows with %v; want row 24 and context.Canceled", scanned, err)
	}
}
