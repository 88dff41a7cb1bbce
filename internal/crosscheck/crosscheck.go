package crosscheck

import (
	"fmt"
	"runtime"
)

// Config seeds and sizes one harness run. The zero value is unusable;
// call withDefaults (RunAll and the Check* entry points do).
type Config struct {
	// Seed roots every pseudo-random choice of the run. Two runs with
	// the same Seed (and sizes) check exactly the same inputs.
	Seed int64
	// Cases is how many randomized cases each oracle family checks on
	// top of the builtin scenarios.
	Cases int
	// Queries is how many random probes the query oracle evaluates per
	// instance.
	Queries int
	// Scale sizes the Sec. VI scenario instances (1 ≈ the paper's).
	Scale float64
	// Logf, when non-nil, receives progress lines (the musecheck driver
	// wires it to stderr; tests leave it nil).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Cases <= 0 {
		c.Cases = 8
	}
	if c.Queries <= 0 {
		c.Queries = 12
	}
	if c.Scale <= 0 {
		c.Scale = 0.02
	}
	return c
}

func (c Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Failure is one divergence, panic, or violated invariant the harness
// found. String renders everything a human needs to reproduce it.
type Failure struct {
	// Oracle is the family that tripped: "chase", "query", "wizard",
	// "resume", "server", "auto".
	Oracle string
	// Case names the input (builtin scenario name or generated-case
	// label including its derivation seed).
	Case string
	// Seed is the Config.Seed of the run, so `musecheck -seed N`
	// replays it.
	Seed int64
	// Detail states the disagreement.
	Detail string
	// Repro, when non-empty, holds a minimized reproduction: the
	// shrunken source instance and the mappings or probe involved.
	Repro string
}

func (f Failure) String() string {
	s := fmt.Sprintf("[%s] case %s (seed %d): %s", f.Oracle, f.Case, f.Seed, f.Detail)
	if f.Repro != "" {
		s += "\n--- minimized repro ---\n" + f.Repro
	}
	return s
}

// RunAll runs the six oracle families and returns every failure
// found. An empty slice is the pass verdict.
func RunAll(cfg Config) []Failure {
	cfg = cfg.withDefaults()
	var fails []Failure
	for _, run := range []struct {
		name string
		fn   func(Config) []Failure
	}{
		{"chase", CheckChase},
		{"query", CheckQuery},
		{"wizard", CheckWizard},
		{"resume", CheckResume},
		{"server", CheckServer},
		{"auto", CheckAuto},
	} {
		cfg.logf("crosscheck: %s oracle...", run.name)
		fs := run.fn(cfg)
		cfg.logf("crosscheck: %s oracle: %d failure(s)", run.name, len(fs))
		fails = append(fails, fs...)
	}
	return fails
}

// forceParallel raises GOMAXPROCS to at least n for the duration of
// fn, so the auto oracle's run is scheduled across several cores even
// on a single-core machine.
func forceParallel(n int, fn func()) {
	old := runtime.GOMAXPROCS(0)
	if old < n {
		runtime.GOMAXPROCS(n)
		defer runtime.GOMAXPROCS(old)
	}
	fn()
}

// guard runs fn, converting a panic into an error so a crashing engine
// becomes a reported Failure instead of taking down the whole run.
func guard(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}
