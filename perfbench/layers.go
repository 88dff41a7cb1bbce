package main

import (
	"time"

	"muse/internal/obs"
)

// layers derives the per-layer metrics of a dialog workload from the
// traced phase t: its spans, the registry's counters, the store timings
// (durable only; the walstore metrics read 0 on design) and the client's
// records. u is the untraced phase of the same run.
func (w dialogWorkload) layers(u, t *phase, spans []obs.SpanRecord, reg *obs.Registry, d *deployment, gens []genTimes) map[string]float64 {
	tree := newSpanTree(spans)
	byRID := make(map[string]*obs.SpanRecord)
	var reqSelf, stepMs, unattributed, musedSelf, probeSelf, evalMs []float64
	var evalTime, chaseTime time.Duration
	for i := range spans {
		sp := &spans[i]
		switch sp.Name {
		case obs.SpanSrvRequest:
			attrs := sp.AttrMap()
			if rid, ok := attrs["request_id"].(string); ok {
				byRID[rid] = sp
			}
			switch attrs["route"] {
			case "create", "question", "answer":
				reqSelf = append(reqSelf, ms(tree.self(sp, nil)))
			}
		case obs.SpanCoreStep:
			stepMs = append(stepMs, ms(sp.Dur))
			unattributed = append(unattributed, ms(tree.self(sp, nil)))
		case obs.SpanMuseD:
			musedSelf = append(musedSelf, ms(tree.self(sp, engineSpan)))
		case obs.SpanMuseGProbe:
			probeSelf = append(probeSelf, ms(tree.self(sp, engineSpan)))
		case obs.SpanQueryEval:
			evalMs = append(evalMs, ms(sp.Dur))
			evalTime += sp.Dur
		case obs.SpanChase:
			chaseTime += sp.Dur
		}
	}

	var creates, appends, completes, loads []float64
	loadByToken := make(map[string]time.Duration)
	for _, s := range d.timed {
		s.mu.Lock()
		for _, x := range s.creates {
			creates = append(creates, ms(x))
		}
		for _, x := range s.appends {
			appends = append(appends, ms(x))
		}
		for _, x := range s.completes {
			completes = append(completes, ms(x))
		}
		for tok, x := range s.loads {
			loads = append(loads, ms(x))
			loadByToken[tok] = x
		}
		s.mu.Unlock()
	}

	var wire, replay []float64
	for _, r := range t.reqs {
		sp, ok := byRID[r.rid]
		if !ok {
			continue
		}
		wire = append(wire, ms(r.lat-sp.Dur))
		if ld, ok := loadByToken[r.token]; ok && r.kind == kindResume {
			replay = append(replay, ms(sp.Dur-ld))
		}
	}

	c := func(name string) float64 { return float64(reg.Get(name)) }
	steps := float64(t.steps())
	answers := float64(len(t.latencies(kindAnswer)))
	real := c(obs.MMuseGRealExamples) + c(obs.MMuseDRealExamples)
	synthetic := c(obs.MMuseGSyntheticExamples) + c(obs.MMuseDSyntheticExamples)
	tiers := c(obs.MPlanTierPinnedComposite) + c(obs.MPlanTierBoundComposite) + c(obs.MPlanTierBoundSingle) +
		c(obs.MPlanTierScan) + c(obs.MPlanTierNested) + c(obs.MPlanTierNaive)
	instGen, mapGen := genMedians(gens)
	return map[string]float64{
		"server.steps":                    steps,
		"server.wire_ms":                  mean(wire),
		"server.request_self_ms":          mean(reqSelf),
		"server.prime_s":                  d.prime.Seconds(),
		"server.resume_p50_ms":            quantile(u.latencies(kindResume), 0.5),
		"server.busy_409":                 float64(t.busy409),
		"server.rejected_503":             float64(t.rejected503),
		"walstore.append_ms":              mean(appends),
		"walstore.append_p99_ms":          quantile(appends, 0.99),
		"walstore.create_ms":              mean(creates),
		"walstore.load_ms":                mean(loads),
		"walstore.complete_ms":            mean(completes),
		"walstore.bytes_per_answer":       ratio(c(obs.MSrvWALBytes), answers),
		"core.step_ms":                    mean(stepMs),
		"core.mused_self_ms":              mean(musedSelf),
		"core.probe_self_ms":              mean(probeSelf),
		"core.unattributed_ms":            mean(unattributed),
		"core.replay_ms":                  mean(replay),
		"core.questions":                  c(obs.MMuseGQuestions) + c(obs.MMuseDQuestions),
		"core.real_example_frac":          ratio(real, real+synthetic),
		"query.eval_ms_per_step":          ratio(ms(evalTime), steps),
		"query.eval_p99_ms":               quantile(evalMs, 0.99),
		"query.evals":                     c(obs.MQueryEvals),
		"query.rows_scanned_per_returned": ratio(c(obs.MQueryRowsScanned), c(obs.MQueryRowsReturned)),
		"query.scan_plan_frac":            ratio(c(obs.MPlanTierScan), tiers),
		"query.index_hit_frac":            ratio(c(obs.MIndexHits), c(obs.MIndexProbes)),
		"query.index_builds":              c(obs.MIndexBuilds),
		"query.index_build_ms":            c(obs.MIndexBuildNanos) / 1e6,
		"chase.ms_per_step":               ratio(ms(chaseTime), steps),
		"chase.tuples_per_step":           ratio(c(obs.MChaseTuples), steps),
		"scenarios.instance_gen_s":        instGen,
		"cliogen.generate_s":              mapGen,
		"runtime.gc_cycles":               float64(t.mem.gcs),
		"runtime.gc_pause_ms":             float64(t.mem.pauseNs) / 1e6,
		"rank.decisive_frac":              ratio(float64(t.decisive), float64(t.rankings)),
		"obs.trace_overhead_frac":         1 - ratio(steps/t.wall.Seconds(), float64(u.steps())/u.wall.Seconds()),
	}
}

// genMedians is the median set-up time spent generating instances and
// mapping sets.
func genMedians(gens []genTimes) (instances, mappings float64) {
	var a, b []float64
	for _, g := range gens {
		a = append(a, g.instances.Seconds())
		b = append(b, g.mappings.Seconds())
	}
	return quantile(a, 0.5), quantile(b, 0.5)
}
