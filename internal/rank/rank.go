// Package rank scores the Muse wizards' candidate choices against
// evidence in the real source instance, following the collective
// scoring idea of Kimmig et al. (PAPERS.md): instead of interrogating
// every grouping candidate and or-interpretation independently, each
// option is ranked by how well the actual data supports it — FD
// conformance, support counts (how many real tuples witness the
// grouping), and duplication penalties.
//
// The scorer reads the statistics of the session's shared
// query.IndexStore, indexed by atom, so every statistic it consults is
// collected at most once per set; on a server, Manager.Prime counts
// them before the first session, and scoring costs no instance pass.
// Scores are quantized to four decimals, which makes them stable across
// GOMAXPROCS settings and warm/cold stores, and keeps their JSON
// rendering short and renderer-independent.
//
// Rankings are advisory metadata: attaching a ranker to a wizard never
// changes which questions are posed, their order, or their content —
// the crosscheck auto oracle holds the system to exactly that.
package rank

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"muse/internal/deps"
	"muse/internal/mapping"
	"muse/internal/query"
)

// DefaultThreshold is the confidence below which a ranking is not
// considered decisive: the margin between the top two options must be
// at least this for an auto-designer to answer unattended.
const DefaultThreshold = 0.15

// Score is one scored option of a question. Options are 1-based to
// match the wizard's answer encoding (ChooseScenario answers 1 or 2;
// or-group alternatives are presented 1..n).
type Score struct {
	// Option is the 1-based option this score belongs to.
	Option int
	// Value is the option's normalized weight in [0,1]; the values of
	// one ranking sum to 1 (up to quantization).
	Value float64
	// Evidence is a compact, deterministic rendering of the instance
	// evidence behind the value.
	Evidence string
}

// Ranking is the scorer's verdict on one question.
type Ranking struct {
	// Scores holds one entry per option, in option order.
	Scores []Score
	// Best is the 1-based option with the highest value (ties resolve
	// to the lowest option, so rankings are deterministic).
	Best int
	// Confidence is the margin between the best and second-best values,
	// in [0,1]. Zero means the evidence cannot separate the options.
	Confidence float64
	// Decisive reports Confidence >= the scorer's threshold: an
	// unattended designer may answer Best without escalating.
	Decisive bool
}

// Scorer ranks grouping candidates and or-interpretations. The zero
// value (no constraints, no store) is usable: every ranking comes out
// even and indecisive, which an auto-designer escalates.
type Scorer struct {
	// Deps holds the source keys/FDs used for conformance scoring; may
	// be nil.
	Deps *deps.Set
	// Store caches statistics over the real instance
	// (shared with the wizards); may be nil when no real instance is
	// available, in which case every option scores evenly.
	Store *query.IndexStore
	// Threshold is the decisiveness cutoff; zero means
	// DefaultThreshold.
	Threshold float64
}

// threshold returns the effective decisiveness cutoff.
func (s *Scorer) threshold() float64 {
	if s.Threshold > 0 {
		return s.Threshold
	}
	return DefaultThreshold
}

// q4 quantizes to four decimals. All exported values pass through it:
// it keeps JSON renderings short, makes float noise impossible to
// observe, and pins cross-platform determinism.
func q4(x float64) float64 { return math.Round(x*10000) / 10000 }

// clamp bounds a raw score away from the degenerate 0/1 endpoints so a
// normalized ranking never claims certainty the evidence cannot carry.
func clamp(x float64) float64 {
	return math.Min(0.98, math.Max(0.02, x))
}

// finalize turns per-option raw weights and evidence into a Ranking:
// weights are normalized to sum 1, Best is the lowest top-weight
// option, and Confidence is the top-two margin.
func (s *Scorer) finalize(raw []float64, evidence []string) Ranking {
	total := 0.0
	for _, w := range raw {
		total += w
	}
	r := Ranking{Scores: make([]Score, len(raw)), Best: 1}
	best, second := -1.0, -1.0
	for i, w := range raw {
		v := w
		if total > 0 {
			v = w / total
		}
		r.Scores[i] = Score{Option: i + 1, Value: q4(v), Evidence: evidence[i]}
		if v > best {
			second = best
			best = v
			r.Best = i + 1
		} else if v > second {
			second = v
		}
	}
	if second < 0 {
		second = 0
	}
	r.Confidence = q4(best - second)
	r.Decisive = r.Confidence >= s.threshold()
	return r
}

// attrEvidence is the per-attribute statistics block every scoring
// rule draws on.
type attrEvidence struct {
	ok       bool // statistics were available (top-level set, real instance)
	card     int  // tuples of the attribute's set
	distinct int  // distinct non-nil values of the attribute
}

// repetition is the support signal: the fraction of tuples sharing
// their value with another tuple's, in [0,1]. High repetition means
// many real tuples witness grouping by this attribute.
func (e attrEvidence) repetition() float64 {
	if !e.ok || e.card <= 1 || e.distinct <= 0 {
		return 0
	}
	return float64(e.card-e.distinct) / float64(e.card-1)
}

// unique reports full duplication: every tuple carries its own value,
// so grouping by the attribute degenerates to one group per tuple.
func (e attrEvidence) unique() bool {
	return e.ok && e.card > 1 && e.distinct == e.card
}

// evidenceFor collects the statistics for one source attribute
// expression through the shared store. ok is false when no store is
// attached or the expression's set is nested (the store only keeps
// per-attribute distinct counts for top-level sets).
func (s *Scorer) evidenceFor(info *mapping.Info, e mapping.Expr) attrEvidence {
	if s.Store == nil {
		return attrEvidence{}
	}
	st := info.SrcVars[e.Var]
	if st == nil || st.Parent != nil {
		return attrEvidence{}
	}
	// Atoms take a set's first slots, and the statistics index them.
	i := st.Slot(e.Attr)
	if i < 0 || i >= len(st.Atoms) {
		return attrEvidence{}
	}
	stats := s.Store.Stats(st)
	return attrEvidence{ok: true, card: stats.Card, distinct: stats.Distinct[i]}
}

// keyAttr reports whether e belongs to a candidate key of its
// variable's set: grouping by (part of) a key approximates per-tuple
// grouping, which the scorer penalizes as duplication.
func (s *Scorer) keyAttr(info *mapping.Info, e mapping.Expr) bool {
	if s.Deps == nil {
		return false
	}
	st := info.SrcVars[e.Var]
	if st == nil {
		return false
	}
	for _, k := range s.Deps.CandidateKeys(st) {
		for _, a := range k.Attrs {
			if a == e.Attr {
				return true
			}
		}
	}
	return false
}

// fdDetermined reports whether the confirmed attributes on the same
// variable functionally determine e under the source FDs: including e
// then provably cannot change the grouping semantics.
func (s *Scorer) fdDetermined(info *mapping.Info, e mapping.Expr, confirmed []mapping.Expr) bool {
	if s.Deps == nil || len(confirmed) == 0 {
		return false
	}
	st := info.SrcVars[e.Var]
	if st == nil {
		return false
	}
	var sameVar []string
	for _, c := range confirmed {
		if c.Var == e.Var {
			sameVar = append(sameVar, c.Attr)
		}
	}
	if len(sameVar) == 0 {
		return false
	}
	return s.Deps.Closure(st, sameVar)[e.Attr]
}

// describe renders the evidence behind one include-score
// deterministically.
func describe(e mapping.Expr, ev attrEvidence, key, fd bool) string {
	var parts []string
	if ev.ok {
		parts = append(parts, fmt.Sprintf("%s: %d/%d distinct", e, ev.distinct, ev.card))
		if ev.unique() {
			parts = append(parts, "unique per tuple")
		} else if rep := ev.repetition(); rep > 0 {
			parts = append(parts, fmt.Sprintf("repetition %.2f", rep))
		}
	} else {
		parts = append(parts, fmt.Sprintf("%s: no instance statistics", e))
	}
	if key {
		parts = append(parts, "key attribute")
	}
	if fd {
		parts = append(parts, "FD-determined by confirmed")
	}
	return strings.Join(parts, "; ")
}

// includeScore computes the raw weight of including e in the grouping,
// combining the support signal (repetition), the duplication penalty
// (unique and key attributes push toward per-tuple groups), and FD
// conformance (a determined attribute adds nothing).
func (s *Scorer) includeScore(info *mapping.Info, e mapping.Expr, confirmed []mapping.Expr) (float64, string) {
	ev := s.evidenceFor(info, e)
	key := s.keyAttr(info, e)
	fd := s.fdDetermined(info, e, confirmed)
	raw := 0.5 + 0.45*ev.repetition()
	if ev.unique() {
		raw -= 0.3
	}
	if key {
		raw -= 0.15
	}
	if fd {
		raw -= 0.25
	}
	if !ev.ok && !key && !fd {
		// No evidence at all: stay exactly even so the ranking comes
		// out indecisive and the question escalates.
		raw = 0.5
	}
	return clamp(raw), describe(e, ev, key, fd)
}

// ScoreProbe ranks the two scenarios of a probe question: option 1
// includes the probed attribute in the grouping, option 2 leaves it
// out.
func (s *Scorer) ScoreProbe(m *mapping.Mapping, probe mapping.Expr, confirmed []mapping.Expr) Ranking {
	info := m.MustAnalyze()
	include, why := s.includeScore(info, probe, confirmed)
	return s.finalize(
		[]float64{include, 1 - include},
		[]string{why, "complement of option 1"},
	)
}

// ScoreKeyGrouping ranks the multi-key question of Sec. III-B: option
// 1 groups by key (one nested set per key value), option 2 groups by a
// subset of the non-key attributes. Strong repetition among the
// non-key attributes is the witness for option 2; without it, grouping
// by key is the conservative recommendation.
func (s *Scorer) ScoreKeyGrouping(m *mapping.Mapping, keyAttrs, rest []mapping.Expr) Ranking {
	info := m.MustAnalyze()
	maxRep, arg := 0.0, ""
	seen := false
	for _, e := range rest {
		ev := s.evidenceFor(info, e)
		if !ev.ok {
			continue
		}
		seen = true
		if rep := ev.repetition(); rep > maxRep {
			maxRep, arg = rep, e.String()
		}
	}
	key := clamp(0.5 - 0.45*maxRep)
	if len(rest) == 0 {
		key = 0.98
	}
	keyWhy := fmt.Sprintf("group by key (%s)", sortedExprList(keyAttrs))
	restWhy := "no repeated non-key attribute witnesses a coarser grouping"
	if maxRep > 0 {
		restWhy = fmt.Sprintf("%s repeats (repetition %.2f): real tuples witness a non-key grouping", arg, maxRep)
	} else if !seen {
		restWhy = "no instance statistics for the non-key attributes"
	}
	return s.finalize([]float64{key, 1 - key}, []string{keyWhy, restWhy})
}

// ScoreChoices ranks, per or-group of the ambiguous mapping, its
// alternatives: each is weighted by how many real tuples carry a value
// for it (coverage) and how informative those values are
// (distinctness). Alternatives over identical statistics tie at
// confidence 0, which an auto-designer escalates — the data cannot
// tell them apart.
func (s *Scorer) ScoreChoices(m *mapping.Mapping) []Ranking {
	info := m.MustAnalyze()
	out := make([]Ranking, len(m.OrGroups))
	for gi, g := range m.OrGroups {
		raw := make([]float64, len(g.Alts))
		why := make([]string, len(g.Alts))
		for ai, alt := range g.Alts {
			ev := s.evidenceFor(info, alt)
			if !ev.ok || ev.card == 0 {
				raw[ai] = 0.5
				why[ai] = fmt.Sprintf("%s: no instance statistics", alt)
				continue
			}
			cov, dr := s.coverage(info, alt, ev)
			raw[ai] = clamp(cov * (0.4 + 0.6*dr))
			why[ai] = fmt.Sprintf("%s: coverage %.2f, %d distinct", alt, cov, ev.distinct)
		}
		out[gi] = s.finalize(raw, why)
	}
	return out
}

// coverage returns the fraction of the set's tuples carrying a non-nil
// value for alt, and the distinct ratio among those, from the shared
// store's statistics (warm after the first question over the set).
func (s *Scorer) coverage(info *mapping.Info, alt mapping.Expr, ev attrEvidence) (cov, distinctRatio float64) {
	st := info.SrcVars[alt.Var]
	nonNil := s.Store.Stats(st).Set[st.Slot(alt.Attr)]
	if ev.card == 0 || nonNil == 0 {
		return 0, 0
	}
	return float64(nonNil) / float64(ev.card), float64(ev.distinct) / float64(nonNil)
}

// sortedExprList renders expressions sorted, for evidence strings.
func sortedExprList(es []mapping.Expr) string {
	ss := make([]string, len(es))
	for i, e := range es {
		ss[i] = e.String()
	}
	sort.Strings(ss)
	return strings.Join(ss, ", ")
}
