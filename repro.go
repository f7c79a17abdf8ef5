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
//	ctx := context.Background()
//	run := db.NewRun(plan, repro.SSE())
//	_, _ = run.StepBatchCtx(ctx, 128)        // progressive estimates …
//	_ = run.Estimates()
//	_ = run.RunToCompletionCtx(ctx)          // … now exact
//
//	_ = db.Exact(plan)                       // or exactly, in one pass
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
	"slices"
	"sync"

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
// that produced it. Configure it first — SetStack, SetWindows, EnableMVCC,
// EnablePreparedPlans — and then any number of goroutines may use it at
// once: plans, runs, sessions, exact passes and, under MVCC, writes (Apply,
// Insert, Delete, IngestCSV). Without MVCC the view is an immutable version
// 0 and every write fails with ErrReadOnly.
type Database struct {
	schema  *Schema
	filter  *Filter
	tuples  int64
	windows [][2]float64

	// base is the store the view was opened on and stack declares the layers
	// it is served through; store is what rebuild made of the two, where
	// retrievals enter. Nothing writes to the base: under MVCC writes land as
	// layers over it.
	base  storage.Store
	stack storage.Stack
	store storage.Store
	// counts is what every chain rebuild has made counted — retrievals and
	// coalescing: the layers are replaced, the counts are not (Retrievals,
	// CoalescingStats).
	counts storage.Counters

	// mvcc is non-nil after EnableMVCC: db.store is the MVCC store, the
	// stack is built over the base of its every view, and every write
	// publishes a version (mvcc.go).
	mvcc *mvcc.Store

	// coord is non-nil for databases opened with OpenDistributed: the store
	// is a shard fan-out coordinator and the view is read-only.
	coord *dist.CoordinatorStore
	// layout is non-nil for databases opened with OpenLayout: the store
	// serves a read-only persistent .wvls file (see layout.go).
	layout *layoutStore
	// mass is the coefficient mass of version 0, which every constructor
	// sums or reads while it opens the view (CoefficientMass).
	mass float64

	// prepared is the lazily-enabled prepared-plan registry (prepared.go);
	// preparedMu makes EnablePreparedPlans idempotent under concurrency.
	preparedMu sync.Mutex
	prepared   *PlanRegistry
}

// NewDatabase bulk-loads a distribution: one dense separable transform, held
// as the dense array itself when at least a quarter of its cells are nonzero,
// as a sparse store of its nonzero coefficients otherwise (the rule of
// storage.Build). The coefficient mass
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
	return newDatabase(dist.Schema, filter, storage.NewMemoryStoreFromDense(hat), dist.TupleCount, mass), nil
}

// newDatabase assembles a view of tuples tuples and coefficient mass mass
// over base, served bare until SetStack declares layers.
func newDatabase(schema *Schema, filter *Filter, base storage.Store, tuples int64, mass float64) *Database {
	db := &Database{schema: schema, filter: filter, base: base, tuples: tuples, mass: mass}
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
			return stack.Build(raw, &db.counts)
		})
		db.store = db.mvcc
		return
	}
	db.store = db.stack.Build(db.base, &db.counts)
}

// Stack declares the layers retrievals cross above a database's base store,
// each optional and always built in one order, base first:
//   - Fault injects a deterministic fault schedule (chaos testing):
//     progressive runs degrade, while Exact and the other context-free
//     conveniences panic on an injected failure;
//   - Retry re-attempts failed retrievals with backoff, so it recovers faults
//     beneath it;
//   - Coalesce shares overlapping in-flight fetches between concurrent runs.
//     Over a store that answers from memory (InMemory) it costs more than
//     the fetches it saves.
//
// Between retry and coalesce every chain has the instrument layer, which no
// field declares: it counts the keys asked of the layers beneath it
// (Retrievals; a shared fetch once, a retried key once) and times each
// batch into the observed metrics registry (wvq_storage_batchget_seconds);
// with no registry observed the timing costs one atomic load and a branch
// per call. Under MVCC the stack serves the base tier, not the in-memory
// overlay.
type Stack = storage.Stack

// SetStack declares the store stack and builds it over the base, replacing
// the previous declaration whole: to change one layer, change that field of
// Stack() and pass the result back. Every call makes new layers, so Nth-call
// fault schedules start over; runs and sessions keep the chain they captured
// at creation. The coalescing counters are the database's and carry across
// every call (Retrievals, CoalescingStats).
func (db *Database) SetStack(s Stack) {
	db.stack = s
	db.rebuild()
}

// Stack returns the declared store stack.
func (db *Database) Stack() Stack { return db.stack }

// StoreStack prints the store stack retrievals cross, base first — for
// example "array → instrument", with "→ mvcc" last when an MVCC overlay
// sits over it.
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
// high-dimensional huge domains. The coefficients are built once, in
// ascending key order, into the base store storage.Build picks — the array
// at least a quarter full, the sparse store otherwise — and the mass is
// summed in that order, as LoadDatabase sums it.
func NewSparseDatabase(dist *SparseDistribution, filter *Filter) (*Database, error) {
	if dist == nil || filter == nil {
		return nil, fmt.Errorf("repro: nil distribution or filter")
	}
	hat, err := dist.TransformSparse(filter)
	if err != nil {
		return nil, err
	}
	keys := make([]int, 0, len(hat))
	for k := range hat {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var mass float64
	store, err := storage.Build(dist.Schema.Cells(), len(keys), func(fn func(int, float64) bool) error {
		for _, k := range keys {
			mass += math.Abs(hat[k])
			if !fn(k, hat[k]) {
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	return newDatabase(dist.Schema, filter, store, dist.TupleCount, mass), nil
}

// NewEmptyDatabase creates a database with no tuples and mass 0 over an
// empty sparse store, to be populated through EnableMVCC and Insert.
func NewEmptyDatabase(schema *Schema, filter *Filter) (*Database, error) {
	if schema == nil || filter == nil {
		return nil, fmt.Errorf("repro: nil schema or filter")
	}
	return newDatabase(schema, filter, storage.NewSparseStoreFromDense(nil), 0, 0), nil
}

// Schema returns the database schema.
func (db *Database) Schema() *Schema { return db.schema }

// Filter returns the wavelet filter of the stored transform.
func (db *Database) Filter() *Filter { return db.filter }

// ErrReadOnly is the typed refusal of writes against a view that does not
// run under MVCC, and of EnableMVCC on a distributed coordinator; match it
// with errors.Is. The wrapped message says how to write instead.
var ErrReadOnly = errors.New("repro: database view is read-only")

// readOnlyErr reports why the view cannot accept tuple updates, or nil for
// one that can: only a database under MVCC writes. The returned error wraps
// ErrReadOnly.
func (db *Database) readOnlyErr() error {
	switch {
	case db.coord != nil:
		return fmt.Errorf("%w: distributed database; write on the shard side before partitioning", ErrReadOnly)
	case db.mvcc == nil:
		return fmt.Errorf("%w: EnableMVCC (wvqd -mvcc) to write to it", ErrReadOnly)
	}
	return nil
}

// Insert adds one tuple, updating O((L·log N)^d) stored coefficients. It is
// a one-tuple Apply: all writes share the batched code path and publish a
// version; bulk loads should batch tuples into a WriteBatch instead.
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
	return db.tuples
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

// Save writes the database (schema, filter identity, transformed
// coefficients) to w as the .wvls file SaveLayout writes with default
// options: the nonzero values behind rank words from about 15 % of the
// cells nonzero up, behind a key directory below that.
// The file can be mapped with OpenLayout or read into memory with
// LoadDatabase. An MVCC database writes one pinned version.
func (db *Database) Save(w io.Writer) error {
	return db.encodeLayout(w, LayoutOptions{})
}

// Retrievals returns the number of coefficients asked of the store beneath
// the coalescing layer since the database was opened — the paper's I/O cost
// measure, physical: a fetch coalesced runs share counts once. Under MVCC it
// counts what reaches the base tier, Apply's reads of current values
// included, and not the keys the overlay answers. The count is the
// database's and only grows, across every SetStack and compaction; take a
// difference to price a piece of work. A run's own count is Run.Retrieved,
// a session's Session.Retrievals.
func (db *Database) Retrievals() int64 { return db.counts.Retrievals() }

// NonzeroCoefficients returns the size of the stored transform.
func (db *Database) NonzeroCoefficients() int { return db.store.NonzeroCount() }

// CoefficientMass returns K = Σ_ξ |Δ̂[ξ]|, the constant in the Theorem 1
// worst-case bound K^α·ι_p(ξ′) reported by Run.WorstCaseBound. Every view
// carries its mass from open time, summed in an order the data alone fixes:
// a built or loaded database in ascending key order, a layout from its
// header (ascending too), a coordinator from its shards' metadata, which is
// the mass of the view they serve, unchanged — so every open form of one
// file carries the same bits. Under MVCC the store keeps it
// as exact incremental bookkeeping — that mass plus per-Apply increments,
// carried across compactions — so bounds stay deterministic under live
// writes. The error is always nil.
func (db *Database) CoefficientMass() (float64, error) {
	if db.mvcc != nil {
		return db.mvcc.Mass(), nil
	}
	return db.mass, nil
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
// coefficient, fetching and accumulating on GOMAXPROCS workers (the answer
// has the same bits at any worker count). It panics if a retrieval fails;
// use ExactCtx where the store can (files, shards, injected faults).
func (db *Database) Exact(plan *Plan) []float64 { return mustExact(plan, db.evalStore()) }

// CoalesceStats reports cross-run I/O sharing: of the coefficients
// requested through the coalescing layer, how many were physically fetched
// and how many were served by joining another run's in-flight fetch.
type CoalesceStats = storage.CoalesceStats

// InMemory reports whether the database's store answers every retrieval from
// process memory — an in-memory store or a layout file's bytes, under MVCC
// the base it was opened on — rather than from a shard or through an
// injected fault. A coalescing layer does not count as memory: its fetches
// wait on one another. Retries and the instrument layer add no fetch of
// their own. Whoever assembles the serving stack uses it to leave out layers that
// only pay for themselves over a slow fetch.
func (db *Database) InMemory() bool {
	return db.coord == nil && db.stack.Fault == nil && !db.stack.Coalesce
}

// CoalescingStats returns the coalescing counters; ok is false when the
// stack does not coalesce. The counters are the database's, not a layer
// instance's: they carry across every SetStack and every MVCC compaction.
func (db *Database) CoalescingStats() (stats CoalesceStats, ok bool) {
	return db.counts.Coalesce(), db.stack.Coalesce
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
