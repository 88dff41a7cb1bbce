// Command musebench reproduces the evaluation of Sec. VI of the paper:
// the scenario characteristics table, the Muse-G table of Fig. 5
// (scenario × G1/G2/G3), and the Muse-D table.
//
// Usage:
//
//	musebench                         # all tables, paper configuration
//	musebench -table museg -scenario DBLP
//	musebench -scale 0.2              # faster, smaller instances
//	musebench -nokeys                 # ablation: no key-based reduction
//	musebench -noreal                 # ablation: synthetic examples only
//
// The Muse-G table carries two retrieval columns: "indexes" is the
// number of distinct hash indexes the session's shared index store
// materialized (each built at most once per run), and "idx build" is
// the total wall-clock spent building them.
//
//	musebench -cpuprofile cpu.out     # write a pprof CPU profile
//	musebench -memprofile mem.out     # write a pprof heap profile
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"muse/internal/bench"
	"muse/internal/designer"
	"muse/internal/obs"
	"muse/internal/scenarios"
)

func main() {
	log.SetFlags(0)
	table := flag.String("table", "all", "characteristics | museg | mused | auto | all")
	scenario := flag.String("scenario", "", "restrict to one scenario (Mondial, DBLP, TPCH, Amalgam)")
	scaleFlag := flag.String("scale", "1", "instance scale: a float or SF<n> (1 ≈ the paper's data sizes)")
	noKeys := flag.Bool("nokeys", false, "ablation: disable key-based question reduction")
	noReal := flag.Bool("noreal", false, "ablation: disable real-example retrieval")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	metricsPath := flag.String("metrics", "", "accumulate run metrics and write a snapshot here on exit (- for stdout)")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}

	scale, err := scenarios.ParseScale(*scaleFlag)
	if err != nil {
		log.Fatal(err)
	}

	var o *obs.Obs
	var deltas *counterDeltas
	if *metricsPath != "" {
		o = obs.New()
		deltas = newCounterDeltas(o.Reg)
	}

	scns := scenarios.All()
	if *scenario != "" {
		s, err := scenarios.ByName(*scenario)
		if err != nil {
			log.Fatal(err)
		}
		scns = []*scenarios.Scenario{s}
	}

	runChar := *table == "all" || *table == "characteristics"
	runG := *table == "all" || *table == "museg"
	runD := *table == "all" || *table == "mused"
	runAuto := *table == "all" || *table == "auto"
	if !runChar && !runG && !runD && !runAuto {
		log.Fatalf("unknown table %q", *table)
	}

	if runChar {
		var rows []bench.Characteristics
		for _, s := range scns {
			row, err := bench.RunCharacteristics(s, scale)
			if err != nil {
				log.Fatal(err)
			}
			rows = append(rows, row)
		}
		fmt.Println(bench.FormatCharacteristics(rows))
	}

	if runG {
		cfg := bench.MuseGConfig{Scale: scale, NoKeys: *noKeys, NoReal: *noReal, Obs: o}
		var rows []bench.MuseGRow
		for _, s := range scns {
			for _, strat := range []designer.Strategy{designer.G1, designer.G2, designer.G3} {
				start := time.Now()
				row, err := bench.RunMuseG(s, strat, cfg)
				if err != nil {
					log.Fatal(err)
				}
				rows = append(rows, row)
				fmt.Fprintf(os.Stderr, "· %s %s done in %s%s\n", s.Name, strat,
					time.Since(start).Round(time.Millisecond), deltas.line())
			}
		}
		fmt.Println(bench.FormatMuseG(rows))
	}

	if runD {
		var rows []bench.MuseDRow
		for _, s := range scns {
			if s.PaperDQuestions == 0 && *scenario == "" {
				continue // the paper runs Muse-D only where ambiguity exists
			}
			row, err := bench.RunMuseDObs(s, scale, o)
			if err != nil {
				log.Fatal(err)
			}
			rows = append(rows, row)
			fmt.Fprintf(os.Stderr, "· %s Muse-D done%s\n", s.Name, deltas.line())
		}
		if len(rows) > 0 {
			fmt.Println(bench.FormatMuseD(rows))
		}
	}

	if runAuto {
		var rows []bench.AutoRow
		for _, s := range scns {
			row, err := bench.RunAuto(s, scale, 0)
			if err != nil {
				log.Fatal(err)
			}
			rows = append(rows, row)
			fmt.Fprintf(os.Stderr, "· %s auto done%s\n", s.Name, deltas.line())
		}
		fmt.Println(bench.FormatAuto(rows))
	}

	if o != nil {
		if err := o.Reg.WriteFile(*metricsPath); err != nil {
			log.Fatal(err)
		}
	}
}

// counterDeltas prints, per benchmark row, how much a few headline
// counters moved since the previous row.
type counterDeltas struct {
	reg  *obs.Registry
	prev map[string]int64
}

var deltaNames = []struct{ label, name string }{
	{"questions", obs.MMuseGQuestions},
	{"evals", obs.MQueryEvals},
	{"idx builds", obs.MIndexBuilds},
	{"idx hits", obs.MIndexHits},
	{"chase tuples", obs.MChaseTuples},
}

func newCounterDeltas(reg *obs.Registry) *counterDeltas {
	return &counterDeltas{reg: reg, prev: make(map[string]int64)}
}

// line renders " [questions +12 evals +340 ...]" and advances the
// baseline; the nil receiver (metrics disabled) renders nothing.
func (d *counterDeltas) line() string {
	if d == nil {
		return ""
	}
	out := ""
	for _, dn := range deltaNames {
		cur := d.reg.Get(dn.name)
		if diff := cur - d.prev[dn.name]; diff != 0 {
			out += fmt.Sprintf(" %s +%d", dn.label, diff)
		}
		d.prev[dn.name] = cur
	}
	if out == "" {
		return ""
	}
	return " [" + out[1:] + "]"
}
