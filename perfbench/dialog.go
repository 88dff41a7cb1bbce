package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"time"

	"muse/internal/obs"
	"muse/internal/scenarios"
	"muse/internal/server"
	"muse/internal/server/walstore"
)

// dialogWorkload drives scripted design dialogs over HTTP against
// in-process replicas (server.Manager + server.New on a loopback
// listener). One closed-loop client, with one connection per replica,
// plays the dialogs one at a time against per-scenario step budgets; a
// dialog's scenario and answers derive only from (seed, dialog index),
// so a seed repeats its step and question totals exactly. One client,
// because on a 2-vCPU machine two saturate both CPUs and the run time
// then swung with the machine's other load by a third between runs.
type dialogWorkload struct {
	// scenarios builds the design problems a replica serves, the order
	// dialogs cycle through them, and the time generation took.
	scenarios func() (map[string]*server.Scenario, []string, genTimes, error)
	// auto is the Manager's AutoThreshold (0: no ranking).
	auto float64
	// durable keeps dialogs in a walstore (otherwise in a MemStore),
	// GETs the pending question before each answer, and hands
	// handoffShare of the dialogs mid-dialog to a second replica over the
	// same WAL directory.
	durable bool
	// stepRate is the client's steps per second of run length, by
	// scenario: the step budgets the run's dialogs spend.
	stepRate map[string]float64
	// pinned names the scenarios whose dialog scripts are the same under
	// every seed.
	pinned []string
	// setupReps is how often set-up runs; setup_s is the median.
	setupReps int
}

// handoffShare is the share of durable dialogs handed off.
const handoffShare = 0.25

// genTimes is the set-up time spent generating source instances and
// mapping sets.
type genTimes struct{ instances, mappings time.Duration }

// designScale sizes the Sec. VI source instances the design dialogs
// draw their examples from.
const designScale = 0.1

// runDesign plays the four Sec. VI scenarios with ranking on: wizard
// compute (Muse-D, probe retrieval, the small chases, homo and rank)
// dominates a step.
func runDesign(cfg config) (*outcome, error) {
	return dialogWorkload{
		scenarios: paperScenarios, auto: 0.15, setupReps: 9,
		stepRate: map[string]float64{"Mondial": 60, "DBLP": 30, "TPCH": 15, "Amalgam": 30},
		// A TPCH step costs 25-60 ms depending on which probes the answers
		// lead to, so 150 seeded TPCH steps would swing the run by 2x
		// between seeds.
		pinned: []string{"TPCH"},
	}.run(cfg)
}

// runDurable plays the paper's two running examples, whose steps cost
// tens of microseconds of wizard work, behind a write-ahead log, with a
// read beside each write and mid-dialog handoffs: the wire path and the
// store dominate.
func runDurable(cfg config) (*outcome, error) {
	return dialogWorkload{
		scenarios: figureScenarios, durable: true, setupReps: 15,
		stepRate: map[string]float64{"fig1": 500, "fig4": 500},
	}.run(cfg)
}

func paperScenarios() (map[string]*server.Scenario, []string, genTimes, error) {
	var gt genTimes
	out := make(map[string]*server.Scenario)
	var names []string
	for _, s := range scenarios.All() {
		t0 := time.Now()
		in := s.NewInstance(designScale)
		t1 := time.Now()
		set, err := s.Generate()
		gt.instances += t1.Sub(t0)
		gt.mappings += time.Since(t1)
		if err != nil {
			return nil, nil, gt, fmt.Errorf("generating %s mappings: %w", s.Name, err)
		}
		out[s.Name] = &server.Scenario{Deps: s.Src, Real: in, Set: set}
		names = append(names, s.Name)
	}
	return out, names, gt, nil
}

func figureScenarios() (map[string]*server.Scenario, []string, genTimes, error) {
	t0 := time.Now()
	sc := server.Builtin()
	return sc, []string{"fig1", "fig4"}, genTimes{instances: time.Since(t0)}, nil
}

// cloneScenarios gives another replica its own Scenario values, and so
// its own index stores, over the same instances and mapping sets.
func cloneScenarios(in map[string]*server.Scenario) map[string]*server.Scenario {
	out := make(map[string]*server.Scenario, len(in))
	for name, sc := range in {
		out[name] = &server.Scenario{Deps: sc.Deps, Real: sc.Real, Set: sc.Set}
	}
	return out
}

func (w dialogWorkload) run(cfg config) (*outcome, error) {
	dep, setupSecs, gens, err := w.setup(cfg)
	if err != nil {
		return nil, err
	}
	u := w.play(cfg, dep)
	names, walFS := dep.names, dep.fs
	scen, held, err := dep.release()
	if err != nil {
		return nil, err
	}
	out := &outcome{values: u.endToEnd(quantile(setupSecs, 0.5), held)}
	phases := []*phase{u}
	if cfg.Trace {
		sink := &spanSink{}
		o := obs.New()
		o.Tr.SetSink(sink)
		tdep, err := w.deploy(cfg, cloneScenarios(scen), names, o)
		if err != nil {
			return nil, err
		}
		t := w.play(cfg, tdep)
		if err := tdep.close(); err != nil {
			return nil, err
		}
		spans, err := sink.spans()
		if err != nil {
			return nil, err
		}
		for k, v := range w.layers(u, t, spans, o.Reg, tdep, gens) {
			out.values[k] = v
		}
		phases = append(phases, t)
	}

	verify(scen, w.auto, u.dialogs)
	byIndex := make(map[int]*dialogRec, len(u.dialogs))
	for _, d := range u.dialogs {
		byIndex[d.index] = d
	}
	for _, p := range phases[1:] {
		for _, d := range p.dialogs {
			if ud := byIndex[d.index]; d.err == nil && (ud == nil || !sameOutcome(ud, d)) {
				d.err = fmt.Errorf("dialog %d: traced run ended differently from the untraced one", d.index)
			}
		}
	}
	var firstErr error
	for _, p := range phases {
		for _, d := range p.dialogs {
			out.attempted++
			if d.err != nil {
				out.failed++
				if firstErr == nil {
					firstErr = d.err
				}
			}
		}
	}
	if firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d dialogs failed; first: %v\n", out.failed, out.attempted, firstErr)
	}
	out.record = w.record(u, out.values, walFS)
	return out, nil
}

// record is the run's totals and the end-to-end metrics of the
// untraced phase under their per-workload names.
func (w dialogWorkload) record(u *phase, e2e map[string]float64, walFS string) map[string]any {
	var questions, answers, handoffs, cut, failed int
	type share struct {
		Dialogs, Steps int
		StepSeconds    float64
	}
	byScenario := make(map[string]*share)
	for _, d := range u.dialogs {
		sh := byScenario[d.scenario]
		if sh == nil {
			sh = &share{}
			byScenario[d.scenario] = sh
		}
		sh.Dialogs++
		sh.Steps += d.steps
		sh.StepSeconds += d.stepTime.Seconds()
		questions += d.questions
		answers += len(d.answers)
		if d.handedOff {
			handoffs++
		}
		if d.cut {
			cut++
		}
		if d.err != nil {
			failed++
		}
	}
	rec := map[string]any{
		"cut_dialogs":           cut,
		"dialogs":               len(u.dialogs),
		"steps":                 u.steps(),
		"questions":             questions,
		"answers":               answers,
		"handoffs":              handoffs,
		"requests":              len(u.reqs),
		"by_scenario":           byScenario,
		"first_question_p50_ms": u.firstQuestionMs(),
		"step_p50_ms":           e2e["op_p50_ms"],
		"step_p99_ms":           quantile(u.latencies(kindCreate, kindAnswer), 0.99),
		"steps_per_s":           e2e["ops_per_s"],
		"alloc_kb_per_step":     e2e["alloc_kb_per_op"],
		"failed_frac":           float64(failed) / float64(len(u.dialogs)),
		"auto_threshold":        w.auto,
		"clients":               1,
		"pinned_scenarios":      w.pinned,
		"store":                 "memstore",
	}
	if w.durable {
		rec["store"], rec["fsync"], rec["wal_fs"] = "walstore", "off", walFS
		rec["read_p50_ms"] = quantile(u.latencies(kindRead), 0.5)
		rec["resume_p50_ms"] = quantile(u.latencies(kindResume), 0.5)
	}
	return rec
}

// deployment is one set-up: the scenarios and the replicas serving
// them.
type deployment struct {
	scen  map[string]*server.Scenario
	names []string
	a     *replica
	// b serves the handed-off dialogs (nil unless durable).
	b      *replica
	walDir string
	fs     string        // filesystem of walDir
	prime  time.Duration // Manager.Prime of a
	// timed decorates both replicas' stores on a traced durable run.
	timed []*timedStore
}

// deploy starts the replicas over scen; o (nil when untraced) observes
// both.
func (w dialogWorkload) deploy(cfg config, scen map[string]*server.Scenario, names []string, o *obs.Obs) (*deployment, error) {
	d := &deployment{scen: scen, names: names}
	var storeA, storeB server.SessionStore = server.NewMemStore(), nil
	if w.durable {
		dir, err := os.MkdirTemp(cfg.WorkDir, "wal-")
		if err != nil {
			return nil, err
		}
		d.walDir, d.fs = dir, fsName(dir)
		// Fsync off: the latency of an fsync on a shared disk swung the
		// step p95 by 2-3x between minutes, for whole runs at a time, and
		// that is the disk's cost, not the program's.
		opts := walstore.Options{Fsync: false, Reg: o.Registry()}
		if storeA, _, err = walstore.Open(dir, opts); err != nil {
			return nil, err
		}
		if storeB, _, err = walstore.Open(dir, opts); err != nil {
			return nil, err
		}
		if o != nil {
			ta, tb := newTimedStore(storeA), newTimedStore(storeB)
			storeA, storeB, d.timed = ta, tb, []*timedStore{ta, tb}
		}
	}
	var err error
	if d.a, err = startReplica(scen, o, storeA, w.auto); err != nil {
		return nil, err
	}
	t0 := time.Now()
	d.a.mg.Prime(context.Background())
	d.prime = time.Since(t0)
	if storeB != nil {
		if d.b, err = startReplica(cloneScenarios(scen), o, storeB, w.auto); err != nil {
			return nil, err
		}
		d.b.mg.Prime(context.Background())
	}
	return d, nil
}

func (d *deployment) close() error {
	var err error
	for _, r := range []*replica{d.a, d.b} {
		if r != nil {
			if cerr := r.close(); err == nil {
				err = cerr
			}
		}
	}
	if d.walDir != "" {
		if rerr := os.RemoveAll(d.walDir); err == nil {
			err = rerr
		}
	}
	return err
}

// release closes d and returns its inputs (fresh Scenario values over
// the same instances and mapping sets) and the live heap d held beyond
// them: the replicas' Managers and session stores, and the index stores
// their scenarios built. Both heap readings are taken with the inputs
// and the client's records live, so neither counts. The listeners stop
// first, so no connection buffers are in either reading.
func (d *deployment) release() (map[string]*server.Scenario, uint64, error) {
	inputs := cloneScenarios(d.scen)
	for _, r := range []*replica{d.a, d.b} {
		if r != nil {
			if err := r.stop(); err != nil {
				return nil, 0, err
			}
		}
	}
	before := settledHeap()
	err := d.close()
	d.a, d.b, d.scen = nil, nil, nil
	after := settledHeap()
	return inputs, before - min(before, after), err
}

// setup builds the scenarios and deploys them setupReps times, keeping
// the last deployment; it returns each repetition's seconds and
// generation times.
func (w dialogWorkload) setup(cfg config) (*deployment, []float64, []genTimes, error) {
	var d *deployment
	var secs []float64
	var gens []genTimes
	for rep := 0; rep < w.setupReps; rep++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, nil, nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		scen, names, gt, err := w.scenarios()
		if err != nil {
			return nil, nil, nil, err
		}
		if d, err = w.deploy(cfg, scen, names, nil); err != nil {
			return nil, nil, nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		gens = append(gens, gt)
	}
	return d, secs, gens, nil
}

// phase is one timed play of the dialog scripts: the client's records,
// the wall time and the allocation over it.
type phase struct {
	*client
	wall time.Duration
	mem  memMark
}

func (p *phase) latencies(kinds ...reqKind) []float64 {
	var out []float64
	for _, r := range p.reqs {
		if slices.Contains(kinds, r.kind) {
			out = append(out, ms(r.lat))
		}
	}
	return out
}

// firstQuestionMs is the median over scenarios of each scenario's
// median create latency: every dialog of a scenario opens with the same
// question, and how many dialogs a scenario gets varies with the seed.
func (p *phase) firstQuestionMs() float64 {
	creates := make(map[string][]float64)
	for _, d := range p.dialogs {
		if d.steps > 0 {
			creates[d.scenario] = append(creates[d.scenario], ms(d.firstLat))
		}
	}
	var medians []float64
	for _, lats := range creates {
		medians = append(medians, quantile(lats, 0.5))
	}
	return quantile(medians, 0.5)
}

func (p *phase) steps() int { return len(p.latencies(kindCreate, kindAnswer)) }

// endToEnd is the phase's end-to-end metrics; held is the live heap the
// deployment held at its end.
func (p *phase) endToEnd(setupS float64, held uint64) map[string]float64 {
	steps := p.latencies(kindCreate, kindAnswer)
	n := float64(len(steps))
	return map[string]float64{
		"setup_s":         setupS,
		"op_p50_ms":       quantile(steps, 0.5),
		"op_p95_ms":       quantile(steps, 0.95),
		"ops_per_s":       n / p.wall.Seconds(),
		"alloc_kb_per_op": ratio(float64(p.mem.alloc), n) / 1e3,
		"retained_mb":     float64(held) / 1e6,
	}
}

// budgets is the client's step budget per scenario for a run of the
// given length.
func (w dialogWorkload) budgets(seconds int) map[string]int {
	b := make(map[string]int, len(w.stepRate))
	for name, rate := range w.stepRate {
		b[name] = int(math.Ceil(rate * float64(seconds)))
	}
	return b
}

// play runs the client's script: dialog k plays scenario k mod the
// scenario count, skipping scenarios whose step budget is spent, until
// every budget is spent. The dialog that spends a budget is cut there,
// so each run has the same number of steps of each scenario whatever
// the answers.
func (w dialogWorkload) play(cfg config, d *deployment) *phase {
	cl := newClient()
	left := w.budgets(cfg.Seconds)
	runtime.GC()
	m0 := readMem()
	start := time.Now()
	for k, spent := 0, 0; spent < len(d.names); k++ {
		name := d.names[k%len(d.names)]
		if left[name] <= 0 {
			spent++
			continue
		}
		spent = 0
		dr := &dialogRec{index: k, scenario: name}
		seed := cfg.Seed
		if slices.Contains(w.pinned, name) {
			seed = defaultSeed
		}
		dr.err = cl.converse(w, seed, dr, d, left[name])
		left[name] -= dr.steps
		if dr.err != nil {
			left[name] = 0 // a failing scenario would fail again
		}
		cl.dialogs = append(cl.dialogs, dr)
	}
	p := &phase{client: cl, wall: time.Since(start), mem: readMem().sub(m0)}
	cl.hc.CloseIdleConnections()
	return p
}
