package repro

import (
	"context"

	"repro/internal/obs"
)

// This file is the facade of the observability layer. The metrics registry,
// tracing and logging primitives live in internal/obs; the HTTP handler's
// Observe method (internal/server) points every layer's instrumentation at
// one registry. The database-side hook below adds retrieval timing.

// EnableInstrumentation puts a timing layer into the store stack so every
// retrieval batch is timed into the observed metrics registry
// (wvq_storage_batchget_seconds). With no registry observed the layer is a
// pass-through: one atomic load and a branch per call, no clock reads, no
// allocation. It sits over faults and retries, so a timing covers the whole
// physical retrieval, and under coalescing, whose counters report the
// fetches that were shared. Under MVCC it times the base tier, not the
// in-memory overlay. Idempotent.
func (db *Database) EnableInstrumentation() {
	if !db.stack.Instrument {
		db.stack.Instrument = true
		db.rebuild()
	}
}

// Re-exported diagnostics vocabulary: a QueryProfile is the per-run EXPLAIN
// ANALYZE accumulator (plan source and build time, queue delay, per-StepBatch
// timings, per-tier retrieval attribution, per-shard rows, bound trajectory);
// ProfileSnapshot is its JSON shape — the `profile` section of an ?explain=1
// response and the /debug/profiles ring entry.
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
// batch.
func ProfileRun(ctx context.Context, run *Run, id, label string) (context.Context, *QueryProfile) {
	p := obs.NewQueryProfile(id, label)
	run.AttachProfile(p)
	return obs.WithProfile(ctx, p), p
}
