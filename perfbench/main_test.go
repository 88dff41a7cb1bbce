package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestWorkloadsReportDeclaredMetrics runs every workload of
// BENCHMARK.json briefly, untraced and traced, and checks that each
// prints exactly the declared metrics with their units, and that no
// operation failed.
func TestWorkloadsReportDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			res, _, err := run(config{Workload: w.Name, Seed: defaultSeed, Seconds: 1, Trace: trace, WorkDir: t.TempDir()})
			if err != nil {
				t.Errorf("%s trace=%v: %v", w.Name, trace, err)
				continue
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d failed", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s trace=%v: metric %s in %s, BENCHMARK.json says %s", w.Name, trace, d.Name, m.Unit, d.Unit)
				}
			}
		}
	}
}

// tpchDigest is the SHA-256 of the canonical rendering of the exchange
// output: TPCH at exchangeScale chased with its mapping set. The seed
// only orders the CSV rows, so every seed must give it.
const tpchDigest = "7fabf1f531939ce61ec1d281938d45be7c2eae685e72b1c34cf0d83cef8e9af4"

// TestExchangeDigestIsRecorded checks the exchange reference, and every
// pass, against the recorded digest under the default and the held-out
// seed, so a change that alters both the generated source and the loaded
// one still fails.
func TestExchangeDigestIsRecorded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the exchange workload")
	}
	for _, seed := range []int64{defaultSeed, heldoutSeed} {
		res, out, err := run(config{Workload: "exchange", Seed: seed, Seconds: 1, WorkDir: t.TempDir()})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := out.record["digest"]; got != tpchDigest || !res.Correct {
			t.Errorf("seed %d: reference digest %v, recorded %s; correct=%v", seed, got, tpchDigest, res.Correct)
		}
	}
}
