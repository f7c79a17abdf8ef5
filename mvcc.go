package repro

import (
	"context"
	"fmt"
	"io"
	"math"

	"repro/internal/ingest"
	"repro/internal/mvcc"
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
// zero value selects every default (see mvcc.Config and the Default*
// constants of internal/mvcc).
type MVCCConfig = mvcc.Config

// MVCCStats is a point-in-time snapshot of the MVCC store's counters.
type MVCCStats = mvcc.Stats

// EnableMVCC converts the database to multi-version concurrency control:
// every write (Apply, Insert, Delete) publishes an immutable version whose
// overlay — every coefficient written since the base was folded, key-sorted,
// at its newest value — sits over a frozen base, readers evaluate against
// immutable snapshots (NewRun/Exact/ExactCtx/Session capture the head at
// start time and stay bit-stable however many writes land mid-drain), and a
// background compactor folds the overlay into a fresh base once it holds
// more than MaxLayerKeys entries: one ascending merge of the overlay and the
// base's walk, built once (storage.Build) into the array or the sparse store
// by the rule every loader uses. No base is ever written in place.
//
// The opened base becomes the frozen version-0 base, with the mass
// CoefficientMass reports, the declared store stack (retries, fault
// injection, instrumentation, coalescing — enabled before or after) is built
// over the base of every view, and the database takes writes beside any
// number of readers. A mapped layout file is that base as it is: nothing
// is copied at enable time, and the first compaction merges it and the
// overlay into memory. Sessions and runs started earlier keep reading the
// store they captured. Idempotent; a distributed coordinator cannot enable
// MVCC.
func (db *Database) EnableMVCC(cfg MVCCConfig) error {
	if db.mvcc != nil {
		return nil
	}
	if db.coord != nil {
		return db.readOnlyErr()
	}
	m, err := mvcc.New(db.base, db.filter, db.schema.Sizes, db.tuples, db.mass, cfg)
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

// Apply atomically applies a batch of tuple-frequency deltas under MVCC:
// the whole batch is transformed in one sparse pass (per-dimension impulse
// factors memoized, coincident tuples merged) and its coefficients' new
// values merge into the head's overlay as one immutable version, returned.
// Concurrent readers are isolated: runs started earlier keep their
// snapshot. An empty (or nil) batch returns the current version. On error
// nothing is applied.
// A database without MVCC is version 0 for good: Apply fails with
// ErrReadOnly.
func (db *Database) Apply(ctx context.Context, b *WriteBatch) (Version, error) {
	if err := db.readOnlyErr(); err != nil {
		return 0, err
	}
	return db.mvcc.Apply(ctx, b)
}

// Version returns the current database version: the number of non-empty
// applies since open, 0 without MVCC.
func (db *Database) Version() Version {
	if db.mvcc != nil {
		return db.mvcc.Head()
	}
	return 0
}

// CompactNow folds the MVCC overlay into a fresh base synchronously (the
// background compactor does the same under the configured policy). Reads
// before, during and after are bit-identical; pinned snapshots are
// untouched. No-op when nothing was written since the last fold; an error
// without MVCC.
func (db *Database) CompactNow(ctx context.Context) error {
	if db.mvcc == nil {
		return fmt.Errorf("repro: compaction requires MVCC (call EnableMVCC)")
	}
	return db.mvcc.Compact(ctx)
}

// Snapshot is a pinned, immutable view of one database version. It
// implements Evaluator — plans, exact evaluation and progressive runs
// against it serve bit-stable coefficients however many writes land after
// the pin; what its reads ask of the base tier counts in the database's
// Retrievals — and stays addressable by SnapshotAt until Release.
type Snapshot struct {
	evaluator
	sn *mvcc.Snapshot
}

// Snapshot pins the current head version. Release it when done; the
// returned view outlives any retention or compaction churn.
func (db *Database) Snapshot() (*Snapshot, error) {
	if db.mvcc == nil {
		return nil, fmt.Errorf("repro: snapshots require MVCC (call EnableMVCC)")
	}
	return newSnapshot(db, db.mvcc.Snapshot()), nil
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
	return newSnapshot(db, sn), nil
}

// newSnapshot wraps a pinned version: every evaluation reads its view.
func newSnapshot(db *Database, sn *mvcc.Snapshot) *Snapshot {
	return &Snapshot{evaluator: evaluator{db: db, store: sn.View()}, sn: sn}
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
	if err := db.readOnlyErr(); err != nil {
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
