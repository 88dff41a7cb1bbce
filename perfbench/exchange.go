package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"muse/internal/chase"
	"muse/internal/instance"
	"muse/internal/load"
	"muse/internal/mapping"
	"muse/internal/nr"
	"muse/internal/obs"
	"muse/internal/scenarios"
)

const (
	// exchangeScale is the TPCH scale factor of the batch exchange.
	exchangeScale = 0.25
	// exchangePassesPerSecond sizes the fixed pass count to -seconds.
	exchangePassesPerSecond = 1.0
	// exchangeSetupReps is how often set-up runs; setup_s is the median.
	exchangeSetupReps = 5
)

// exchangeInput is one set-up: the source written as CSV and the mapping
// set to chase.
type exchangeInput struct {
	cat *nr.Catalog
	dir string
	ms  []*mapping.Mapping
}

// setupExchange generates the TPCH source and mapping set and writes the
// source as CSV, rows in an order drawn from the seed: load order is the
// input the seed varies. It also returns the generated source.
func setupExchange(cfg config) (exchangeInput, *instance.Instance, genTimes, error) {
	s := scenarios.TPCH()
	t0 := time.Now()
	in := s.NewInstance(exchangeScale)
	t1 := time.Now()
	set, err := s.Generate()
	gt := genTimes{instances: t1.Sub(t0), mappings: time.Since(t1)}
	if err != nil {
		return exchangeInput{}, nil, gt, err
	}
	x := exchangeInput{cat: s.Src.Cat}
	for _, m := range set.Mappings {
		if m.Ambiguous() {
			// One fixed interpretation: the first alternative of every
			// or-group.
			m = m.Interpretation(make([]int, len(m.OrGroups)))
		}
		x.ms = append(x.ms, m)
	}
	if x.dir, err = os.MkdirTemp(cfg.WorkDir, "csv-"); err != nil {
		return x, nil, gt, err
	}
	return x, in, gt, exportCSV(in, x.dir, cfg.Seed)
}

// exportCSV writes every top-level set of in to dir as <set>.csv, with
// a header and the rows shuffled by seed.
func exportCSV(in *instance.Instance, dir string, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for _, st := range in.Cat.TopLevel() {
		name := st.Path.String()
		var buf bytes.Buffer
		if err := load.WriteCSV(in, name, &buf); err != nil {
			return err
		}
		rows, err := csv.NewReader(&buf).ReadAll()
		if err != nil {
			return err
		}
		body := rows[1:]
		rng.Shuffle(len(body), func(i, j int) { body[i], body[j] = body[j], body[i] })
		buf.Reset()
		if err := csv.NewWriter(&buf).WriteAll(rows); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, name+".csv"), buf.Bytes(), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// loadSource loads every CSV of dir into a fresh instance of cat.
func loadSource(cat *nr.Catalog, dir string) (*instance.Instance, error) {
	in := instance.New(cat)
	for _, st := range cat.TopLevel() {
		name := st.Path.String()
		f, err := os.Open(filepath.Join(dir, name+".csv"))
		if err != nil {
			return nil, err
		}
		err = load.CSV(in, name, f, true)
		f.Close()
		if err != nil {
			return nil, err
		}
	}
	return in, nil
}

// digest is the SHA-256 of an instance's canonical rendering.
func digest(in *instance.Instance) string {
	h := sha256.New()
	io.WriteString(h, in.String())
	return hex.EncodeToString(h.Sum(nil))
}

// referenceDigest chases the generated source, never exported or
// loaded, with the serial reference chase: a pass that loses or alters
// data on its way through CSV and load.CSV differs from it.
func referenceDigest(gen *instance.Instance, ms []*mapping.Mapping) (string, error) {
	out, err := chase.ChaseSerial(gen, ms...)
	if err != nil {
		return "", err
	}
	return digest(out), nil
}

// passSet is one timed series of exchange passes.
type passSet struct {
	loads, chases      []time.Duration
	loadMem, chaseMem  []memMark
	failed             int
	srcBytes, outBytes float64 // live heap held by the last pass's source and output
	interned           int
}

// runPasses runs n passes, each a load of the CSVs into a fresh
// instance and a chase of the mapping set (chase.Chase's path, traced
// through o when o is non-nil). Between passes, outside the timed
// region, the output's digest is checked against want and the heap is
// collected.
func runPasses(x exchangeInput, n int, o *obs.Obs, want string) (*passSet, error) {
	ps := &passSet{}
	var src, out *instance.Instance
	for i := 0; i < n; i++ {
		src, out = nil, nil
		runtime.GC()
		m0, t0 := readMem(), time.Now()
		var err error
		if src, err = loadSource(x.cat, x.dir); err != nil {
			return nil, err
		}
		t1, m1 := time.Now(), readMem()
		if out, err = chase.ChaseObs(src, o, x.ms...); err != nil {
			return nil, err
		}
		t2, m2 := time.Now(), readMem()
		ps.loads = append(ps.loads, t1.Sub(t0))
		ps.chases = append(ps.chases, t2.Sub(t1))
		ps.loadMem = append(ps.loadMem, m1.sub(m0))
		ps.chaseMem = append(ps.chaseMem, m2.sub(m1))
		if digest(out) != want {
			ps.failed++
		}
	}
	withOut := liveHeap()
	runtime.KeepAlive(out)
	out = nil
	withSrc := liveHeap()
	ps.interned = src.Interned()
	src = nil
	base := liveHeap()
	ps.outBytes = float64(int64(withOut) - int64(withSrc))
	ps.srcBytes = float64(int64(withSrc) - int64(base))
	return ps, nil
}

// passMs and total are the passes' durations and their sum.
func (ps *passSet) passMs() (passes []float64, total time.Duration) {
	for i := range ps.loads {
		p := ps.loads[i] + ps.chases[i]
		passes = append(passes, ms(p))
		total += p
	}
	return passes, total
}

func (ps *passSet) mem() memMark {
	var m memMark
	for i := range ps.loadMem {
		m = m.add(ps.loadMem[i]).add(ps.chaseMem[i])
	}
	return m
}

func (ps *passSet) endToEnd(setupS float64) map[string]float64 {
	passes, total := ps.passMs()
	n := float64(len(passes))
	return map[string]float64{
		"setup_s":         setupS,
		"op_p50_ms":       quantile(passes, 0.5),
		"op_p95_ms":       quantile(passes, 0.95),
		"ops_per_s":       n / total.Seconds(),
		"alloc_kb_per_op": float64(ps.mem().alloc) / n / 1e3,
		"retained_mb":     ps.outBytes / 1e6,
	}
}

// exchangeLayers derives the per-layer metrics from the traced passes
// t; u is the untraced series of the same run.
func exchangeLayers(u, t *passSet, spans []obs.SpanRecord, reg *obs.Registry, gens []genTimes) map[string]float64 {
	tree := newSpanTree(spans)
	workers := float64(reg.Get(obs.GChaseWorkers))
	var straggler, eff []float64
	for i := range spans {
		sp := &spans[i]
		if sp.Name != obs.SpanChase {
			continue
		}
		var sum, slowest time.Duration
		for _, k := range tree[sp.SpanID] {
			if k.Name == obs.SpanChaseMapping {
				sum += k.Dur
				slowest = max(slowest, k.Dur)
			}
		}
		straggler = append(straggler, slowest.Seconds())
		eff = append(eff, ratio(sum.Seconds(), sp.Dur.Seconds()*workers))
	}
	var chaseS, loadS, chaseMB, loadMB []float64
	for i := range t.chases {
		chaseS = append(chaseS, t.chases[i].Seconds())
		loadS = append(loadS, t.loads[i].Seconds())
		chaseMB = append(chaseMB, float64(t.chaseMem[i].alloc)/1e6)
		loadMB = append(loadMB, float64(t.loadMem[i].alloc)/1e6)
	}
	_, tTotal := t.passMs()
	_, uTotal := u.passMs()
	passes := float64(len(t.chases))
	mem := t.mem()
	instGen, mapGen := genMedians(gens)
	return map[string]float64{
		"chase.s":                  mean(chaseS),
		"chase.mapping_max_s":      mean(straggler),
		"chase.parallel_eff":       mean(eff),
		"chase.alloc_mb":           mean(chaseMB),
		"chase.tuples":             ratio(float64(reg.Get(obs.MChaseTuples)), passes),
		"load.csv_s":               mean(loadS),
		"load.alloc_mb":            mean(loadMB),
		"instance.src_retained_mb": t.srcBytes / 1e6,
		"instance.interned":        float64(t.interned),
		"scenarios.instance_gen_s": instGen,
		"cliogen.generate_s":       mapGen,
		"runtime.gc_cycles":        float64(mem.gcs),
		"runtime.gc_pause_ms":      float64(mem.pauseNs) / 1e6,
		"obs.trace_overhead_frac":  1 - ratio(passes/tTotal.Seconds(), float64(len(u.chases))/uTotal.Seconds()),
	}
}

func runExchange(cfg config) (*outcome, error) {
	var x exchangeInput
	var gen *instance.Instance
	var secs []float64
	var gens []genTimes
	for rep := 0; rep < exchangeSetupReps; rep++ {
		if x.dir != "" {
			if err := os.RemoveAll(x.dir); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var gt genTimes
		var err error
		if x, gen, gt, err = setupExchange(cfg); err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		gens = append(gens, gt)
	}
	defer os.RemoveAll(x.dir)

	want, err := referenceDigest(gen, x.ms)
	if err != nil {
		return nil, err
	}
	gen = nil
	n := max(2, int(exchangePassesPerSecond*float64(cfg.Seconds)+0.5))
	u, err := runPasses(x, n, nil, want)
	if err != nil {
		return nil, err
	}
	out := &outcome{values: u.endToEnd(quantile(secs, 0.5))}
	sets := []*passSet{u}
	if cfg.Trace {
		sink := &spanSink{}
		o := obs.New()
		o.Tr.SetSink(sink)
		t, err := runPasses(x, n, o, want)
		if err != nil {
			return nil, err
		}
		spans, err := sink.spans()
		if err != nil {
			return nil, err
		}
		for k, v := range exchangeLayers(u, t, spans, o.Reg, gens) {
			out.values[k] = v
		}
		sets = append(sets, t)
	}
	for _, ps := range sets {
		out.attempted += len(ps.chases)
		out.failed += ps.failed
	}
	if out.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d exchange outputs differ from the serial chase's\n", out.failed, out.attempted)
	}
	passes, _ := u.passMs()
	out.record = map[string]any{
		"scale":             exchangeScale,
		"passes":            n,
		"mappings":          len(x.ms),
		"reference":         "chase.ChaseSerial of the generated source, sha256 of the canonical rendering",
		"digest":            want,
		"exchange_s":        quantile(passes, 0.5) / 1e3,
		"exchange_alloc_mb": out.values["alloc_kb_per_op"] / 1e3,
		"out_retained_mb":   out.values["retained_mb"],
		"failed_frac":       float64(u.failed) / float64(n),
	}
	return out, nil
}
