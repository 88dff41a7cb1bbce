package core

import (
	"context"

	"muse/internal/deps"
	"muse/internal/instance"
	"muse/internal/obs"
	"muse/internal/query"
	"muse/internal/rank"
)

// Env is what both wizards read: the source constraints, the real
// instance examples are drawn from, and the session services around
// them. A Session shares one Store and one Ranker between its wizards.
type Env struct {
	// SrcDeps holds the source keys, FDs and referential constraints.
	// They reduce Muse-G's questions (Sec. III-B/III-C) and every
	// example shown must satisfy them. May be nil.
	SrcDeps *deps.Set
	// Real is the actual source instance examples are drawn from when
	// possible (may be nil: always synthetic).
	Real *instance.Instance
	// Store caches hash indexes and statistics over Real across the
	// whole session, shared by every retrieval. Left nil, it is created
	// lazily on the first retrieval.
	Store *query.IndexStore
	// Ranker, when non-nil, scores each posed question's options
	// against the real-instance evidence and attaches the ranking to
	// the question envelope. Purely advisory: it never changes which
	// questions are asked, their order, or their content, and the nil
	// default adds no work (and no allocations) to the dialog path.
	Ranker *rank.Scorer
	// Obs, when non-nil, mirrors the wizard's stats onto its registry
	// (muse_museg_*, muse_mused_*), threads through to the chase and
	// query engines, and records the wizard's spans. Nil disables all
	// of it.
	Obs *obs.Obs
	// Ctx, when non-nil, bounds the wizard's work: example retrieval
	// and chases abort with Ctx.Err() once it is cancelled or past its
	// deadline, unwinding the dialog with that error. A server hosting
	// the wizards installs the per-request context here before resuming
	// the dialog (see Stepper); nil means context.Background().
	Ctx context.Context

	// tables holds the session's assignment tables over Real (assign.go),
	// built on first use and dropped with the session. They are session
	// state, not shared like Store.
	tables assignTables
}

// context returns the bounding context, defaulting to Background.
func (e *Env) context() context.Context {
	if e.Ctx != nil {
		return e.Ctx
	}
	return context.Background()
}

// retrieval returns the query options for one real-example retrieval,
// creating the session's index store on first use.
func (e *Env) retrieval() query.Options {
	if e.Real != nil && (e.Store == nil || e.Store.Instance() != e.Real) {
		e.Store = query.NewIndexStore(e.Real).Observe(e.Obs.Registry())
	}
	return query.Options{Ctx: e.Ctx, Store: e.Store, Obs: e.Obs}
}

// ranker returns the attached scorer with the session's index store
// installed (the store may have been created lazily after the scorer
// was attached). Callers check e.Ranker != nil first.
func (e *Env) ranker() *rank.Scorer {
	if e.Ranker.Store == nil {
		e.Ranker.Store = e.Store
	}
	return e.Ranker
}
