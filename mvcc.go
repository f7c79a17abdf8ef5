package repro

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/mvcc"
	"repro/internal/storage"
)

// This file is the facade of the live-update tier (internal/mvcc): the
// batched write API (WriteBatch, Apply), MVCC snapshot isolation
// (EnableMVCC, Snapshot, SnapshotAt), and version-addressed reads. See
// DESIGN.md §16.

// WriteBatch accumulates tuple-frequency deltas (Add/Remove) to be applied
// atomically as one version. Build it on one goroutine and hand it to
// Database.Apply; the name distinguishes it from the query Batch.
type WriteBatch = mvcc.Batch

// NewWriteBatch returns an empty write batch.
func NewWriteBatch() *WriteBatch { return mvcc.NewBatch() }

// Version identifies one published database state: 0 at open, +1 per
// successful non-empty Apply.
type Version = mvcc.Version

// ErrVersionNotRetained reports a SnapshotAt request for a version that was
// never published or has aged out of the MVCC retention window.
var ErrVersionNotRetained = mvcc.ErrVersionNotRetained

// MVCCConfig tunes the MVCC store's compaction and retention policy; the
// zero value selects every default (see internal/mvcc Default*).
type MVCCConfig struct {
	// MaxLayers bounds the overlay depth before background compaction.
	MaxLayers int
	// MaxLayerKeys bounds total overlay entries before background compaction.
	MaxLayerKeys int
	// Retain is how many versions behind the head stay addressable by
	// SnapshotAt (pinned versions are never dropped while pinned).
	Retain int
	// DisableAutoCompact turns the background compactor off; compaction then
	// runs only through explicit CompactNow calls.
	DisableAutoCompact bool
}

// MVCCStats is a point-in-time snapshot of the MVCC store's counters.
type MVCCStats = mvcc.Stats

// EnableMVCC converts the database to multi-version concurrency control:
// every write (Apply, Insert, Delete) publishes an immutable coefficient
// layer over a frozen base, readers evaluate against immutable snapshots
// (NewRun/Exact*/Session capture the head at start time and stay bit-stable
// however many writes land mid-drain), and a background compactor folds
// layers back into a fresh base.
//
// The opened base becomes the frozen version-0 base, the declared store
// stack (retries, fault injection, instrumentation, coalescing — enabled
// before or after) is built over the base of every view, and the database
// becomes safe for concurrent writers and readers. Sessions and runs started
// earlier keep reading the store they captured. Idempotent; read-only views
// (distributed, layout) cannot enable MVCC.
func (db *Database) EnableMVCC(cfg MVCCConfig) error {
	if db.mvcc != nil {
		return nil
	}
	if err := db.readOnlyErr("write"); err != nil {
		return err
	}
	m, err := mvcc.New(db.base, db.filter, db.schema.Sizes, db.TupleCount(), mvcc.Config{
		MaxLayers:          cfg.MaxLayers,
		MaxLayerKeys:       cfg.MaxLayerKeys,
		Retain:             cfg.Retain,
		DisableAutoCompact: cfg.DisableAutoCompact,
	})
	if err != nil {
		return err
	}
	// The MVCC store owns the base from here on (compaction replaces it).
	db.mvcc, db.base = m, nil
	db.rebuild()
	return nil
}

// MVCCEnabled reports whether the database runs under MVCC.
func (db *Database) MVCCEnabled() bool { return db.mvcc != nil }

// MVCCStats snapshots the MVCC store's counters; ok is false when MVCC is
// not enabled.
func (db *Database) MVCCStats() (stats MVCCStats, ok bool) {
	if db.mvcc == nil {
		return MVCCStats{}, false
	}
	return db.mvcc.Stats(), true
}

// Apply atomically applies a batch of tuple-frequency deltas: the whole
// batch is transformed in one sparse pass (per-dimension impulse factors
// memoized, coincident tuples merged) and its coefficient deltas land as
// one unit, returning the new version. Under MVCC the batch publishes as an
// immutable layer and concurrent readers are isolated: runs started earlier
// keep their snapshot. Without MVCC the deltas are added to the base in
// ascending key order and the version is a plain counter; such a write needs
// exclusive access — no read of the database, and no other write, may run
// beside it. An empty (or nil) batch returns the current version. On error
// nothing is applied.
func (db *Database) Apply(ctx context.Context, b *WriteBatch) (Version, error) {
	if err := db.readOnlyErr("write"); err != nil {
		return 0, err
	}
	if db.mvcc != nil {
		return db.mvcc.Apply(ctx, b)
	}
	if b == nil || b.Len() == 0 {
		return Version(db.version.Load()), nil
	}
	delta, err := b.Delta(db.filter, db.schema.Sizes)
	if err != nil {
		return 0, err
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	keys := make([]int, 0, len(delta))
	for k := range delta {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	w := db.base.(storage.Updatable) // every writable view opens on one
	for _, k := range keys {
		w.Add(k, delta[k])
	}
	db.tuples.Add(int64(math.Round(b.TupleWeight())))
	return Version(db.version.Add(1)), nil
}

// Version returns the current database version: the number of non-empty
// applies since open.
func (db *Database) Version() Version {
	if db.mvcc != nil {
		return db.mvcc.Head()
	}
	return Version(db.version.Load())
}

// CompactNow folds the MVCC overlay into a fresh base synchronously (the
// background compactor does the same under the configured policy). Reads
// before, during and after are bit-identical; pinned snapshots are
// untouched. No-op without layers; an error without MVCC.
func (db *Database) CompactNow(ctx context.Context) error {
	if db.mvcc == nil {
		return fmt.Errorf("repro: compaction requires MVCC (call EnableMVCC)")
	}
	return db.mvcc.Compact(ctx)
}

// Snapshot is a pinned, immutable view of one database version. It
// implements Evaluator — plans, exact evaluation and progressive runs
// against it serve bit-stable coefficients however many writes land after
// the pin — and stays addressable by SnapshotAt until Release.
type Snapshot struct {
	db    *Database
	sn    *mvcc.Snapshot
	store storage.Store
}

// Snapshot pins the current head version. Release it when done; the
// returned view outlives any retention or compaction churn.
func (db *Database) Snapshot() (*Snapshot, error) {
	if db.mvcc == nil {
		return nil, fmt.Errorf("repro: snapshots require MVCC (call EnableMVCC)")
	}
	sn := db.mvcc.Snapshot()
	return &Snapshot{db: db, sn: sn, store: sn.View()}, nil
}

// SnapshotAt pins a specific retained version, or reports
// ErrVersionNotRetained.
func (db *Database) SnapshotAt(v Version) (*Snapshot, error) {
	if db.mvcc == nil {
		return nil, fmt.Errorf("repro: snapshots require MVCC (call EnableMVCC)")
	}
	sn, err := db.mvcc.SnapshotAt(v)
	if err != nil {
		return nil, err
	}
	return &Snapshot{db: db, sn: sn, store: sn.View()}, nil
}

// Release unpins the snapshot (idempotent). The view stays readable while
// referenced, but its version may stop being addressable by SnapshotAt.
func (s *Snapshot) Release() { s.sn.Release() }

// Version returns the pinned version.
func (s *Snapshot) Version() Version { return s.sn.Version() }

// TupleCount returns the number of tuples the pinned version represents.
func (s *Snapshot) TupleCount() int64 { return int64(math.Round(s.sn.TupleWeight())) }

// NonzeroCoefficients returns the pinned version's stored transform size.
func (s *Snapshot) NonzeroCoefficients() int { return s.sn.Nonzero() }

// CoefficientMass returns the pinned version's K = Σ|Δ̂[ξ]| behind
// Theorem-1 worst-case bounds (exact incremental bookkeeping, no
// enumeration).
func (s *Snapshot) CoefficientMass() (float64, error) { return s.sn.Mass(), nil }

// Plan rewrites a batch under the snapshot's database (plans depend only on
// schema and filter, which never change across versions).
func (s *Snapshot) Plan(batch Batch) (*Plan, error) { return s.db.Plan(batch) }

// Exact evaluates a plan exactly against the pinned version.
func (s *Snapshot) Exact(plan *Plan) []float64 { return plan.Exact(s.store) }

// ExactParallel is Exact with batched retrieval and parallel accumulation.
func (s *Snapshot) ExactParallel(plan *Plan, workers int) []float64 {
	return plan.ExactParallel(s.store, workers)
}

// ExactCtx evaluates the plan exactly, returning retrieval failures and
// ctx.Err() instead of panicking.
func (s *Snapshot) ExactCtx(ctx context.Context, plan *Plan) ([]float64, error) {
	return plan.ExactCtx(ctx, s.store)
}

// ExactParallelCtx is ExactCtx with batched retrieval and parallel
// accumulation.
func (s *Snapshot) ExactParallelCtx(ctx context.Context, plan *Plan, workers int) ([]float64, error) {
	return plan.ExactParallelCtx(ctx, s.store, workers)
}

// NewRun starts a progressive run against the pinned version: every
// estimate it ever produces is a pure function of the pinned state.
func (s *Snapshot) NewRun(plan *Plan, pen Penalty) *Run {
	return core.NewRun(plan, pen, s.store)
}

// Retrievals reports retrievals through the owning database's store (the
// counter is shared across all views).
func (s *Snapshot) Retrievals() int64 { return s.store.Retrievals() }

// ResetStats zeroes the shared retrieval counter.
func (s *Snapshot) ResetStats() { s.store.ResetStats() }

var _ Evaluator = (*Snapshot)(nil)

// IngestCSV streams CSV rows into the database as batched applies: rows are
// quantized onto the schema's bins under the database's recorded windows
// (SetWindows, or windows persisted by Save), accumulated into batches of
// batchSize tuples (≤0 selects a default), and each batch lands as one
// Apply — one version per batch, memory bounded by one batch. The first CSV
// record must be a header naming every schema attribute. It returns the
// tuple count ingested, the rows skipped as unparsable, and the last
// version published. On a mid-stream error the batches already applied
// stay applied.
func (db *Database) IngestCSV(ctx context.Context, r io.Reader, batchSize int) (rows, skipped int, v Version, err error) {
	if err := db.readOnlyErr("write"); err != nil {
		return 0, 0, 0, err
	}
	if db.windows == nil {
		return 0, 0, 0, fmt.Errorf("repro: CSV ingest requires quantization windows (SetWindows) to map raw values onto bins")
	}
	cols := make([]ingest.Column, db.schema.NumDims())
	for i := range cols {
		cols[i] = ingest.Column{
			Name: db.schema.Names[i],
			Bins: db.schema.Sizes[i],
			Min:  db.windows[i][0],
			Max:  db.windows[i][1],
		}
	}
	v = db.Version()
	rows, skipped, err = ingest.CSVBatches(r, cols, batchSize, func(b *WriteBatch) error {
		nv, aerr := db.Apply(ctx, b)
		if aerr != nil {
			return aerr
		}
		v = nv
		return nil
	})
	return rows, skipped, v, err
}
