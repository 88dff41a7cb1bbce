package core

import (
	"muse/internal/deps"
	"muse/internal/instance"
	"muse/internal/mapping"
	"muse/internal/obs"
	"muse/internal/query"
	"muse/internal/rank"
)

// Session is the complete Muse design pipeline of Sec. V: starting
// from (possibly ambiguous) tool-generated mappings, first Muse-D
// selects the desired interpretation of every ambiguous mapping, then
// Muse-G designs the grouping semantics of every mapping.
type Session struct {
	Grouping       *GroupingWizard
	Disambiguation *DisambiguationWizard
}

// NewSession builds a session over the source constraints and real
// instance (both optional). Both wizards share one index store over
// the instance, so indexes built while disambiguating are reused by
// every grouping probe.
func NewSession(srcDeps *deps.Set, real *instance.Instance) *Session {
	s := &Session{
		Grouping:       NewGroupingWizard(srcDeps, real),
		Disambiguation: NewDisambiguationWizard(srcDeps, real),
	}
	if real != nil {
		store := query.NewIndexStore(real)
		s.Grouping.Store = store
		s.Disambiguation.Store = store
	}
	return s
}

// Observe attaches the observability bundle to both wizards and
// mirrors the shared index store's counters onto its registry. Call
// it before running the session; a nil o leaves the session
// uninstrumented. Returns the session for chaining.
func (s *Session) Observe(o *obs.Obs) *Session {
	s.Grouping.Obs = o
	s.Disambiguation.Obs = o
	if s.Grouping.Store != nil {
		s.Grouping.Store.Observe(o.Registry())
	}
	return s
}

// Rank attaches an evidence ranker to both wizards, sharing the
// session's index store so scoring is warm and allocation-lean. Every
// question envelope then carries per-option scores; threshold sets the
// confidence below which a ranking is not decisive (0 means
// rank.DefaultThreshold). Rankings are advisory: the dialog's
// questions, order, and content are unchanged. Returns the session
// for chaining.
func (s *Session) Rank(threshold float64) *Session {
	sc := &rank.Scorer{
		Deps:      s.Grouping.SrcDeps,
		Store:     s.Grouping.Store,
		Threshold: threshold,
	}
	s.Grouping.Ranker = sc
	s.Disambiguation.Ranker = sc
	return s
}

// Run drives the full pipeline on a schema mapping and returns the
// refined, unambiguous mapping set.
func (s *Session) Run(set *mapping.Set, gd GroupingDesigner, dd DisambiguationDesigner) (*mapping.Set, error) {
	unambiguous, err := s.Disambiguation.DisambiguateAll(set, dd)
	if err != nil {
		return nil, err
	}
	// The assignment tables serve this dialog's questions only; a server
	// keeps a finished dialog's session for its result, not its tables.
	defer func() { s.Grouping.tables = assignTables{} }()
	var out []*mapping.Mapping
	for _, m := range unambiguous.Mappings {
		refined, err := s.Grouping.DesignMapping(m, gd)
		if err != nil {
			return nil, err
		}
		out = append(out, refined)
	}
	return mapping.NewSet(set.Src, set.Tgt, out...)
}
