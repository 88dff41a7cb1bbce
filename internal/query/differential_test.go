package query_test

import (
	"testing"

	"muse/internal/crosscheck"
)

// TestPlannerMatchesScan is the permanent planner-vs-scan differential:
// seeded random conjunctive probes over the builtin, mutated, and
// generated instances, each evaluated by the naive full scan and by
// the cost-based planner (in full, with Limit, and via First), all of
// which must agree. It lives here so a
// planner change can't land without passing the differential, even if
// the crosscheck package's own tests are skipped.
func TestPlannerMatchesScan(t *testing.T) {
	cfg := crosscheck.Config{Seed: 3, Cases: 2, Queries: 8, Scale: 0.02}
	for _, f := range crosscheck.CheckQuery(cfg) {
		t.Errorf("%s", f)
	}
}
