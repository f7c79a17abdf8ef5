// Package repro is a Go implementation of "How to Evaluate Multiple
// Range-Sum Queries Progressively" (Schmidt & Shahabi, PODS 2002): the
// Batch-Biggest-B algorithm for exact and progressive evaluation of batches
// of polynomial range-sum queries over a wavelet-transformed data frequency
// distribution, with user-supplied structural error penalty functions.
//
// The typical flow:
//
//	schema, _ := repro.NewSchema([]string{"age", "salary"}, []int{64, 64})
//	dist := repro.NewDistribution(schema)
//	dist.AddTuple([]int{33, 55})            // … load data …
//	db, _ := repro.NewDatabase(dist, repro.Db4)
//
//	ranges, _ := repro.RandomPartition(schema, 512, 1)
//	batch, _ := repro.SumBatch(schema, ranges, "salary")
//	plan, _ := db.Plan(batch)
//
//	run := db.NewRun(plan, repro.SSE())
//	run.StepN(128)                           // progressive estimates …
//	_ = run.Estimates()
//	run.RunToCompletion()                    // … now exact
//
// This package reaches alternative filters (Haar…Db12), cursored/Laplacian/Lp
// penalties, incremental tuple updates, the round-robin per-query baseline,
// and the moment batches behind range AVERAGE/VARIANCE/COVARIANCE. The
// non-wavelet linear strategies (prefix sums, identity) and the
// block-at-a-time progression of the paper's conclusion are measured by
// cmd/experiments (Observation 1 and the disk layout study).
package repro

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/mvcc"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/wavelet"
)

// Database owns the materialized view Δ̂: the wavelet transform of a data
// frequency distribution held in constant-access storage, plus the filter
// that produced it. Any number of goroutines may read it at once — plans,
// runs, sessions, exact passes. A plain write (Apply, Insert, Delete,
// IngestCSV) needs exclusive access: no read may run beside it. To write
// beside readers, EnableMVCC first.
type Database struct {
	schema  *Schema
	filter  *Filter
	tuples  atomic.Int64
	windows [][2]float64

	// base is the store the view was opened on and stack declares the layers
	// it is served through; store is what rebuild made of the two, where
	// retrievals enter. A plain database writes to and enumerates the base.
	base  storage.Store
	stack storage.Stack
	store storage.Store
	// coalesced is what every coalescing layer rebuild has made counted:
	// the layers are replaced, the counts are not (CoalescingStats).
	coalesced storage.CoalesceCounters

	// mvcc is non-nil after EnableMVCC: db.store is the MVCC store, the
	// stack is built over the base of its every view, and every write
	// publishes a version (mvcc.go). version is the write counter of plain
	// (non-MVCC) databases.
	mvcc    *mvcc.Store
	version atomic.Uint64

	// coord is non-nil for databases opened with OpenDistributed: the store
	// is a shard fan-out coordinator and the view is read-only.
	coord *dist.CoordinatorStore
	// layout is non-nil for databases opened with OpenLayout: the store
	// serves a read-only persistent .wvls file (see layout.go).
	layout *layoutStore
	// cachedMass, when non-nil, is the coefficient mass at version 0 — set at
	// open time for views that took it while loading (files), cannot
	// enumerate their coefficients (distributed coordinators) or already
	// persisted it (layouts). CoefficientMass serves it until a write lands.
	cachedMass *float64

	// prepared is the lazily-enabled prepared-plan registry (prepared.go);
	// preparedMu makes EnablePreparedPlans idempotent under concurrency.
	preparedMu sync.Mutex
	prepared   *PlanRegistry
}

// NewDatabase bulk-loads a distribution: one dense separable transform, held
// as the dense array itself or as a table of its nonzero coefficients,
// whichever storage.NewMemoryStore's rule finds smaller. The coefficient mass
// is summed in ascending key order while the transform is at hand, as
// LoadDatabase sums it, so it does not depend on the representation.
func NewDatabase(dist *Distribution, filter *Filter) (*Database, error) {
	if dist == nil || filter == nil {
		return nil, fmt.Errorf("repro: nil distribution or filter")
	}
	hat, err := dist.Transform(filter)
	if err != nil {
		return nil, err
	}
	var mass float64
	for _, v := range hat {
		mass += math.Abs(v)
	}
	db := newDatabase(dist.Schema, filter, storage.NewMemoryStoreFromDense(hat))
	db.tuples.Store(dist.TupleCount)
	db.cachedMass = &mass
	return db, nil
}

// newDatabase assembles a view over base, served bare until SetStack declares
// layers.
func newDatabase(schema *Schema, filter *Filter, base storage.Store) *Database {
	db := &Database{schema: schema, filter: filter, base: base}
	db.rebuild()
	return db
}

// rebuild builds the declared stack over the base. It is the one place
// db.store is assigned: SetStack and EnableMVCC call it, so the stack a
// database runs does not depend on the order they were called in. Runs and
// sessions keep the chain they captured at creation.
func (db *Database) rebuild() {
	if db.mvcc != nil {
		stack := db.stack // compactions build later chains from this copy
		db.mvcc.SetBaseChain(func(raw storage.Store) storage.Store {
			return stack.Build(raw, &db.coalesced)
		})
		db.store = db.mvcc
		return
	}
	db.store = db.stack.Build(db.base, &db.coalesced)
}

// Stack declares the layers retrievals cross above a database's base store,
// each optional and always built in one order, base first:
//   - Fault injects a deterministic fault schedule (chaos testing):
//     progressive runs degrade, while Exact and the other context-free
//     conveniences panic on an injected failure;
//   - Retry re-attempts failed retrievals with backoff, so it recovers faults
//     beneath it;
//   - Instrument times every batch into the observed metrics registry
//     (wvq_storage_batchget_seconds); with no registry observed it costs one
//     atomic load and a branch per call;
//   - Coalesce shares overlapping in-flight fetches between concurrent runs,
//     after which Retrievals counts physical fetches only. Over a store that
//     answers from memory (InMemory) it costs more than the fetches it saves.
//
// Under MVCC the stack serves the base tier, not the in-memory overlay.
type Stack = storage.Stack

// SetStack declares the store stack and builds it over the base, replacing
// the previous declaration whole: to change one layer, change that field of
// Stack() and pass the result back. Every call makes new layers, so Nth-call
// fault schedules start over; runs and sessions keep the chain they captured
// at creation. The coalescing counters are the database's and carry across
// every call (CoalescingStats).
func (db *Database) SetStack(s Stack) {
	db.stack = s
	db.rebuild()
}

// Stack returns the declared store stack.
func (db *Database) Stack() Stack { return db.stack }

// StoreStack prints the store stack retrievals cross, base first — for
// example "array → instrument", with "→ mvcc" last when write layers overlay
// it.
func (db *Database) StoreStack() string {
	if db.mvcc != nil {
		return storage.Describe(db.mvcc.BaseChain()) + " → mvcc"
	}
	return storage.Describe(db.store)
}

// NewSparseDatabase bulk-loads a sparse distribution without materializing
// the dense domain — the path for schemas whose cell count dwarfs the
// record count. Fill-in compounds per dimension (roughly (L·log N)^d per
// record), so prefer short filters (Haar for COUNT workloads) on
// high-dimensional huge domains.
func NewSparseDatabase(dist *SparseDistribution, filter *Filter) (*Database, error) {
	if dist == nil || filter == nil {
		return nil, fmt.Errorf("repro: nil distribution or filter")
	}
	hat, err := dist.TransformSparse(filter)
	if err != nil {
		return nil, err
	}
	store := storage.NewHashStore()
	for k, v := range hat {
		store.Add(k, v)
	}
	db := newDatabase(dist.Schema, filter, store)
	db.tuples.Store(dist.TupleCount)
	return db, nil
}

// NewEmptyDatabase creates a database with no tuples, to be populated
// incrementally with Insert.
func NewEmptyDatabase(schema *Schema, filter *Filter) (*Database, error) {
	if schema == nil || filter == nil {
		return nil, fmt.Errorf("repro: nil schema or filter")
	}
	return newDatabase(schema, filter, storage.NewHashStore()), nil
}

// Schema returns the database schema.
func (db *Database) Schema() *Schema { return db.schema }

// Filter returns the wavelet filter of the stored transform.
func (db *Database) Filter() *Filter { return db.filter }

// ErrReadOnly is the typed refusal of writes against read-only views
// (distributed coordinators, layout files); match it with errors.Is. The
// wrapped message carries the view-specific hint for how to write instead.
var ErrReadOnly = errors.New("repro: database view is read-only")

// readOnlyErr reports why the view cannot accept tuple updates, or nil for
// an ordinary mutable database. The returned error wraps ErrReadOnly.
func (db *Database) readOnlyErr(op string) error {
	switch {
	case db.coord != nil:
		return fmt.Errorf("%w: distributed database; %s on the shard side before partitioning", ErrReadOnly, op)
	case db.layout != nil:
		return fmt.Errorf("%w: layout-backed database; %s against the source database and rebuild the layout", ErrReadOnly, op)
	}
	return nil
}

// Insert adds one tuple, updating O((L·log N)^d) stored coefficients. It is
// a one-tuple Apply: all writes share the batched code path (and publish a
// version under MVCC); bulk loads should batch tuples into a WriteBatch
// instead.
func (db *Database) Insert(coords []int) error {
	_, err := db.Apply(context.Background(), NewWriteBatch().Add(coords, 1))
	return err
}

// Delete removes one occurrence of a tuple (a one-tuple Apply). The caller
// is responsible for the tuple actually being present.
func (db *Database) Delete(coords []int) error {
	_, err := db.Apply(context.Background(), NewWriteBatch().Remove(coords))
	return err
}

// TupleCount returns the number of tuples the view represents.
func (db *Database) TupleCount() int64 {
	if db.mvcc != nil {
		return int64(math.Round(db.mvcc.TupleWeight()))
	}
	return db.tuples.Load()
}

// SetWindows records the per-attribute quantization windows mapping bins
// back to raw units (for example from CSV ingestion); they are persisted by
// Save and surfaced by Windows after LoadDatabase.
func (db *Database) SetWindows(windows [][2]float64) error {
	if windows != nil && len(windows) != db.schema.NumDims() {
		return fmt.Errorf("repro: %d windows for %d attributes", len(windows), db.schema.NumDims())
	}
	db.windows = windows
	return nil
}

// Windows returns the recorded quantization windows, or nil if none.
func (db *Database) Windows() [][2]float64 { return db.windows }

// Save serializes the database (schema, filter identity, transformed
// coefficients) to w in the versioned, checksummed binary format of
// internal/codec. The stored view can be reopened with LoadDatabase.
func (db *Database) Save(w io.Writer) error {
	if db.mvcc != nil {
		// Pin one version so the tuple count and the enumerated coefficients
		// describe the same state even while writes land.
		sn := db.mvcc.Snapshot()
		defer sn.Release()
		return codec.Write(w, db.schema, db.filter.Name,
			int64(math.Round(sn.TupleWeight())), sn.View().(storage.Enumerable), db.windows)
	}
	enum, ok := db.base.(storage.Enumerable)
	if !ok {
		return fmt.Errorf("repro: store does not support enumeration")
	}
	return codec.Write(w, db.schema, db.filter.Name, db.tuples.Load(), enum, db.windows)
}

// LoadDatabase deserializes a database previously written with Save.
// The filter is resolved from the built-in set by name. Coefficients stream
// from the decoder straight into a store sized from the file's header — the
// dense array or the hash table, whichever storage.NewMemoryStore finds
// smaller for the declared domain and count; there is no intermediate copy —
// and the coefficient mass is summed on the way in, in the file's ascending
// key order; nothing is returned unless the stream's checksum verifies.
func LoadDatabase(r io.Reader) (*Database, error) {
	var (
		db    *Database
		store storage.MemoryStore
		mass  float64
	)
	err := codec.Decode(r, func(h *codec.Header) (func(int, float64), error) {
		filter, err := wavelet.ByName(h.FilterName)
		if err != nil {
			return nil, fmt.Errorf("repro: stored database uses %w", err)
		}
		store = storage.NewMemoryStore(h.Schema.Cells(), h.Count, 1)
		db = newDatabase(h.Schema, filter, store)
		db.windows = h.Windows
		db.tuples.Store(h.TupleCount)
		return func(k int, v float64) {
			store.Add(k, v)
			mass += math.Abs(v)
		}, nil
	})
	if err != nil {
		return nil, err
	}
	db.cachedMass = &mass
	return db, nil
}

// Retrievals returns the number of coefficient retrievals performed against
// the store since the last ResetStats — the paper's I/O cost measure.
func (db *Database) Retrievals() int64 { return db.store.Retrievals() }

// ResetStats zeroes the retrieval counter.
func (db *Database) ResetStats() { db.store.ResetStats() }

// NonzeroCoefficients returns the size of the stored transform.
func (db *Database) NonzeroCoefficients() int { return db.store.NonzeroCount() }

// CoefficientMass returns K = Σ_ξ |Δ̂[ξ]|, the constant in the Theorem 1
// worst-case bound K^α·ι_p(ξ′) reported by Run.WorstCaseBound. Enumerating
// the store does not count as retrievals. It returns an error when the
// store cannot enumerate its coefficients — previously this case silently
// reported a mass of 0, which turns every worst-case bound into a useless 0.
func (db *Database) CoefficientMass() (float64, error) {
	// MVCC stores keep the mass as exact incremental bookkeeping (open-time
	// enumeration plus per-Apply increments, carried across compactions), so
	// bounds stay deterministic under live writes.
	if db.mvcc != nil {
		return db.mvcc.Mass(), nil
	}
	// Views carry their mass from open time, each summed in an order the data
	// alone fixes: a built or loaded database in ascending key order, a
	// layout from its header (ascending too), a coordinator from its shards'
	// metadata (each shard in ascending key order, the shards in index
	// order). The coordinator's sum agrees with the others to rounding, not
	// bit for bit. The carried mass describes version 0: the first plain
	// write retires it.
	if db.cachedMass != nil && db.version.Load() == 0 {
		return *db.cachedMass, nil
	}
	enum, ok := db.base.(storage.Enumerable)
	if !ok {
		return 0, fmt.Errorf("repro: store %T does not support enumeration; coefficient mass unknown", db.base)
	}
	var mass float64
	enum.ForEachNonzero(func(_ int, v float64) bool {
		if v < 0 {
			mass -= v
		} else {
			mass += v
		}
		return true
	})
	return mass, nil
}

// Plan rewrites a batch into its merged master list under the database's
// filter. The plan is immutable and reusable across runs and penalties —
// including concurrently: any number of goroutines may start runs on one
// plan, which all share its cached per-penalty retrieval schedule.
func (db *Database) Plan(batch Batch) (*Plan, error) {
	for _, q := range batch {
		if !q.Schema.Equal(db.schema) {
			return nil, fmt.Errorf("repro: query schema does not match database schema")
		}
	}
	return core.NewWaveletPlan(batch, db.filter)
}

// PlanParallel is Plan with an explicit rewrite worker count (≤0 selects
// GOMAXPROCS). The resulting plan is identical for every worker count.
func (db *Database) PlanParallel(batch Batch, workers int) (*Plan, error) {
	for _, q := range batch {
		if !q.Schema.Equal(db.schema) {
			return nil, fmt.Errorf("repro: query schema does not match database schema")
		}
	}
	return core.NewWaveletPlanParallel(batch, db.filter, workers)
}

// enumStore returns the surface that can walk the view's coefficients — the
// head snapshot under MVCC (one stable version), otherwise the base — and
// whether it can: a shard coordinator holds none to walk.
func (db *Database) enumStore() (storage.Store, bool) {
	st := db.base
	if db.mvcc != nil {
		st = db.mvcc.View()
	}
	_, ok := st.(storage.Enumerable)
	return st, ok
}

// evalStore returns the read surface evaluation paths bind to: for MVCC
// databases the current head snapshot (immutable — a run or exact pass over
// it is bit-stable however many writes land mid-drain), otherwise the store
// itself. Each evaluation entry point captures it once.
func (db *Database) evalStore() storage.Store {
	if db.mvcc != nil {
		return db.mvcc.View()
	}
	return db.store
}

// Exact evaluates a plan exactly with one retrieval per distinct
// coefficient. It panics if a retrieval fails; use ExactCtx where the store
// can (files, shards, injected faults).
func (db *Database) Exact(plan *Plan) []float64 { return plan.Exact(db.evalStore()) }

// ExactParallel evaluates a plan exactly using batched retrievals and up to
// workers goroutines (≤0 selects GOMAXPROCS); results are bit-identical to
// Exact. The workers retrieve concurrently, which every store a database is
// served from allows: any number of readers, as long as no plain write runs
// beside them (EnableMVCC for writes beside readers).
func (db *Database) ExactParallel(plan *Plan, workers int) []float64 {
	return plan.ExactParallel(db.evalStore(), workers)
}

// CoalesceStats reports cross-run I/O sharing: of the coefficients
// requested through the coalescing layer, how many were physically fetched
// and how many were served by joining another run's in-flight fetch.
type CoalesceStats = storage.CoalesceStats

// InMemory reports whether the database's store answers every retrieval from
// process memory (an in-memory store, under wrappers that add no fetch of
// their own; under MVCC, the base chain) rather than from a file, a shard or
// through an injected fault. Whoever assembles the serving stack uses it to
// leave out layers that only pay for themselves over a slow fetch.
func (db *Database) InMemory() bool { return storage.IsInMemory(db.store) }

// CoalescingStats returns the coalescing counters; ok is false when the
// stack does not coalesce. The counters are the database's, not a layer
// instance's: they carry across every SetStack and every MVCC compaction.
func (db *Database) CoalescingStats() (stats CoalesceStats, ok bool) {
	return db.coalesced.Stats(), db.stack.Coalesce
}

// NewRun starts a progressive Batch-Biggest-B run under the penalty. The
// retrieval order is served from the plan's schedule cache, so after the
// first run under a given penalty this is cheap — repeated and concurrent
// runs on one plan share a single precomputed schedule.
func (db *Database) NewRun(plan *Plan, pen Penalty) *Run {
	return core.NewRun(plan, pen, db.evalStore())
}

// NewRoundRobinRun starts the unshared per-query baseline for the batch
// (Section 2.2's "s instances of the single query evaluation technique").
func (db *Database) NewRoundRobinRun(batch Batch) (*RoundRobin, error) {
	vectors, err := batchVectors(batch, db.filter)
	if err != nil {
		return nil, err
	}
	return core.NewRoundRobin(vectors, db.evalStore())
}

func batchVectors(batch Batch, f *Filter) ([]sparseVector, error) {
	vectors := make([]sparseVector, len(batch))
	for i, q := range batch {
		v, err := q.Coefficients(f)
		if err != nil {
			return nil, err
		}
		vectors[i] = v
	}
	return vectors, nil
}

// Ensure facade types line up with the internal engine.
var (
	_ = dataset.NewDistribution
	_ = query.Count
	_ = wavelet.Haar
)
