package repro

import (
	"context"

	"repro/internal/obs"
)

// This file is the facade of the observability layer. The metrics registry,
// tracing and logging primitives live in internal/obs; the HTTP handler's
// Observe method (internal/server) points every layer's instrumentation at
// one registry. Retrieval timing is a layer of the store stack
// (Stack.Instrument).

// Re-exported diagnostics vocabulary: a QueryProfile is the per-run
// recorder (plan source and build time, queue delay, per-StepBatchCtx rows
// with the bound trajectory on one clock, per-tier retrieval attribution,
// per-shard rows); ProfileSnapshot is its JSON shape — the `profile`
// section of an ?explain=1 response and the /debug/profiles ring entry.
type (
	QueryProfile    = obs.QueryProfile
	ProfileSnapshot = obs.ProfileSnapshot
)

// ProfileRun arms a run's EXPLAIN ANALYZE profile: it creates a QueryProfile
// identified by id (conventionally a request ID) and label, attaches it to
// the run so every StepBatchCtx records a step row, and returns a derived
// context that carries the profile to the storage tiers underneath
// (coalescing, layout, MVCC, shard coordinator). Drive the run with
// StepBatchCtx on the returned context, then call Finish and Snapshot on the
// profile. Works for runs from Database.NewRun and Session.NewRun alike; the
// off path is untouched — a run without a profile pays one nil check per
// batch. A run does not know its database's coefficient mass, so the
// profile's bound values read 0; Run.WorstCaseBound prices them.
func ProfileRun(ctx context.Context, run *Run, id, label string) (context.Context, *QueryProfile) {
	p := obs.NewQueryProfile(id, label)
	run.AttachProfile(p, 0)
	return obs.WithProfile(ctx, p), p
}
