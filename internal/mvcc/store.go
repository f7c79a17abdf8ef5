package mvcc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/wavelet"
)

// Version identifies one published snapshot state. Version 0 is the state
// the store was opened with; every successful Apply increments it.
type Version uint64

// ErrVersionNotRetained reports a SnapshotAt request for a version that was
// never published or has aged out of the retention window.
var ErrVersionNotRetained = errors.New("mvcc: version not retained")

// Default compaction and retention policy.
const (
	// DefaultMaxLayerKeys triggers compaction when the head's overlay holds
	// more entries than this.
	DefaultMaxLayerKeys = 1 << 17
	// DefaultRetain is how many historical versions stay addressable by
	// SnapshotAt behind the head.
	DefaultRetain = 8
)

// Config tunes the store's compaction and retention policy. The zero value
// selects every default.
type Config struct {
	// MaxLayerKeys bounds the head overlay's entries before a background
	// compaction is triggered (≤0 selects DefaultMaxLayerKeys).
	MaxLayerKeys int
	// Retain is how many versions behind the head stay addressable by
	// SnapshotAt (≤0 selects DefaultRetain). Pinned versions are never
	// dropped while pinned.
	Retain int
	// DisableAutoCompact turns the background compactor off; compaction then
	// runs only through explicit Compact calls. Deterministic tests use this.
	DisableAutoCompact bool
}

// view is one immutable snapshot state: a frozen base store plus the
// overlay of every write since that base was folded. Views are never mutated
// after publication — the head pointer swaps to a new view instead — so any
// reader holding one (a progressive run, a pinned snapshot, a session cache)
// observes bit-stable coefficients forever, whatever lands after it.
type view struct {
	version Version
	// baseVersion is the version the base folds through: the batches above
	// it, version − baseVersion of them, live in ov.
	baseVersion Version
	// rawBase is the unwrapped, enumerable base (compaction source); base
	// is the top of the serving chain the store's base-chain function built
	// over it (see SetBaseChain).
	rawBase storage.Store
	base    storage.Store
	// ov is every key written since the base was folded, ascending, beside
	// its newest absolute value. Explicit zeros stay: they shadow a nonzero
	// base value (a delete). Storing absolutes makes a read one probe and
	// compaction a merge of two ascending walks, bit-identical by
	// construction.
	ov storage.Sorted
	// tuples is the net tuple weight; mass is Σ|coefficient| (the Theorem-1
	// constant K), maintained incrementally and carried verbatim across
	// compaction so bounds are stable; nonzero counts nonzero coefficients.
	tuples  float64
	mass    float64
	nonzero int
	// pins counts explicit retention pins and is shared between
	// re-publications of the same version (base chain rebuilds, compaction).
	pins *atomic.Int64
}

// BatchGetCtx implements storage.Store: overlay hits are resolved in-memory
// (they cannot fail), the remainder takes one batched base read, and partial
// base failures come back at the caller's positions — so retry, coalescing
// and degraded-run semantics compose through the overlay unchanged.
func (v *view) BatchGetCtx(ctx context.Context, keys []int, dst []float64) error {
	if len(keys) != len(dst) {
		panic("mvcc: BatchGetCtx keys/dst length mismatch")
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	base, err := v.resolve(ctx, keys, dst)
	// EXPLAIN ANALYZE attribution: keys answered by the snapshot's overlay
	// vs delegated to the base store. Nil profile = no-op.
	obs.ProfileFrom(ctx).AddMVCC(len(keys)-base, base)
	return err
}

// resolve fills dst from the overlay and fetches the overlay misses from the
// base as one sub-batch (storage.GetAt). It returns how many keys went to
// the base. Apply's merge reads through it too: what it asks of the base
// chain counts there like any read.
func (v *view) resolve(ctx context.Context, keys []int, dst []float64) (int, error) {
	if v.ov.Len() == 0 {
		return len(keys), v.base.BatchGetCtx(ctx, keys, dst)
	}
	// The miss positions are sized from the batch at the first overlay miss,
	// so a call allocates a fixed number of slices, not one per growth.
	var miss []int
	for i, k := range keys {
		if val, ok := v.ov.Lookup(k); ok {
			dst[i] = val
			continue
		}
		if miss == nil {
			miss = make([]int, 0, len(keys)-i)
		}
		miss = append(miss, i)
	}
	failed, err := storage.GetAt(ctx, v.base, keys, miss, dst, nil)
	if err == nil && len(failed) > 0 {
		err = &storage.BatchError{Failed: failed}
	}
	return len(miss), err
}

// NonzeroCount implements storage.Store.
func (v *view) NonzeroCount() int { return v.nonzero }

// Walk implements storage.Enumerable: it hands fn the view's nonzero
// coefficients in ascending key order until fn returns false, one merge of
// the overlay and the base's walk. A base key the overlay holds is passed
// over for the overlay's value, and an explicit zero of the overlay is not
// handed over. It returns the damage the base met: a mapped file's block
// failing its check.
func (v *view) Walk(fn func(key int, value float64) bool) error {
	i, n, stopped := 0, v.ov.Len(), false
	err := v.rawBase.(storage.Enumerable).Walk(func(k int, val float64) bool {
		for ; i < n; i++ {
			ovKey, ovVal := v.ov.Entry(i)
			if ovKey > k {
				break
			}
			if ovKey == k {
				i, val = i+1, ovVal // the overlay's newer value
				break
			}
			if ovVal != 0 && !fn(ovKey, ovVal) {
				stopped = true
				return false
			}
		}
		if val == 0 {
			return true // an explicit zero of the overlay shadows the base's value
		}
		stopped = !fn(k, val)
		return !stopped
	})
	if err != nil || stopped {
		return err
	}
	for ; i < n; i++ {
		if k, val := v.ov.Entry(i); val != 0 && !fn(k, val) {
			break
		}
	}
	return nil
}

// pageDropper is a base that maps a file (a layout): DropPages hands the
// resident pages of its mapping back to the kernel, and a later read faults
// them in again.
type pageDropper interface{ DropPages() }

var _ storage.Store = (*view)(nil)
var _ storage.Enumerable = (*view)(nil)

// Store is the multi-version coefficient store. Reads through the Store
// itself resolve the head snapshot per call (an atomic pointer load);
// evaluation paths that must stay bit-stable across a drain capture one view
// with View or pin one with Snapshot/SnapshotAt. Writers (Apply, Compact,
// SetBaseChain) serialize on an internal mutex and never block readers.
type Store struct {
	filter *wavelet.Filter
	dims   []int
	cells  int // the domain size Π dims: with a snapshot's nonzero count, what sizes a compaction target
	cfg    Config
	// mapped is the version-0 base when it maps a file; see Compact.
	mapped pageDropper

	head atomic.Pointer[view]

	// mu serializes writers and guards retained/chain.
	mu       sync.Mutex
	retained []*view // oldest → newest, includes the head's version
	chain    func(raw storage.Store) storage.Store

	// compactMu serializes compactions (manual and auto); compacting gates
	// the single-flight auto trigger.
	compactMu  sync.Mutex
	compacting atomic.Bool
	compactWG  sync.WaitGroup

	applies         atomic.Int64
	appliedTuples   atomic.Int64
	appliedKeys     atomic.Int64
	compactions     atomic.Int64
	compactedLayers atomic.Int64
	pinned          atomic.Int64
}

// New opens an MVCC store over base, which becomes the frozen version-0
// state (it must support enumeration and is never mutated again — callers
// must stop writing to it directly). The base is only ever read, so a
// read-only one, such as a mapped file, serves. tuples and mass seed the tuple count
// and the coefficient mass Σ|Δ̂[ξ]| the view represents — the caller's own,
// so version 0 carries the bits the base's owner reports; f and dims are
// the filter and per-dimension domain sizes batches are transformed under.
func New(base storage.Store, f *wavelet.Filter, dims []int, tuples int64, mass float64, cfg Config) (*Store, error) {
	if base == nil || f == nil {
		return nil, fmt.Errorf("mvcc: nil base store or filter")
	}
	if _, ok := base.(storage.Enumerable); !ok {
		return nil, fmt.Errorf("mvcc: base store %T cannot enumerate its coefficients", base)
	}
	if cfg.MaxLayerKeys <= 0 {
		cfg.MaxLayerKeys = DefaultMaxLayerKeys
	}
	if cfg.Retain <= 0 {
		cfg.Retain = DefaultRetain
	}
	cells, err := wavelet.CheckDims(dims)
	if err != nil {
		return nil, fmt.Errorf("mvcc: %w", err)
	}
	s := &Store{filter: f, dims: append([]int(nil), dims...), cells: cells, cfg: cfg}
	s.mapped, _ = base.(pageDropper)
	v0 := &view{
		version: 0,
		rawBase: base,
		base:    base,
		tuples:  float64(tuples),
		mass:    mass,
		nonzero: base.NonzeroCount(),
		pins:    new(atomic.Int64),
	}
	s.head.Store(v0)
	s.retained = []*view{v0}
	return s, nil
}

// SetBaseChain sets the function that builds the serving chain over a raw
// base — fault injection, retries, instrumentation, coalescing: whatever the
// owner's storage.Stack declares — and rebuilds the chain of the current
// view with it; compaction builds every later base's. The chain must be safe
// for concurrent retrieval. The overlay is in-memory and is not served
// through it. nil restores the default: the base served bare, which
// any number of goroutines may read. Historical pinned views keep the chain
// they were published with.
func (s *Store) SetBaseChain(chain func(raw storage.Store) storage.Store) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.chain = chain
	s.republishBaseLocked()
}

// BaseChain returns the top of the serving chain under the current head.
func (s *Store) BaseChain() storage.Store { return s.head.Load().base }

// republishBaseLocked swaps the head for a clone with the base chain
// rebuilt by the current chain function. Values, version, overlay and pin
// accounting are untouched.
func (s *Store) republishBaseLocked() {
	cur := s.head.Load()
	nv := &view{
		version:     cur.version,
		baseVersion: cur.baseVersion,
		rawBase:     cur.rawBase,
		ov:          cur.ov,
		tuples:      cur.tuples,
		mass:        cur.mass,
		nonzero:     cur.nonzero,
		pins:        cur.pins,
	}
	nv.base = s.serve(cur.rawBase)
	s.head.Store(nv)
	s.replaceRetainedLocked(nv)
}

// serve builds the serving chain over a raw base.
func (s *Store) serve(raw storage.Store) storage.Store {
	if s.chain == nil {
		return raw
	}
	return s.chain(raw)
}

// replaceRetainedLocked points the retention ring entry for nv.version at
// nv (re-publication of the same logical state).
func (s *Store) replaceRetainedLocked(nv *view) {
	for i := len(s.retained) - 1; i >= 0; i-- {
		if s.retained[i].version == nv.version {
			s.retained[i] = nv
			return
		}
	}
}

// Apply transforms the batch in one sparse pass, adds the resulting
// coefficient deltas to the current values, and publishes a view whose
// overlay is the head's merged with those absolute values — the new head
// version, returned. In-flight reads and pinned snapshots are untouched:
// they keep serving the state they captured. An empty (or nil) batch returns
// the current version without publishing. On error nothing is published.
func (s *Store) Apply(ctx context.Context, b *Batch) (Version, error) {
	if b == nil || len(b.ops) == 0 {
		return s.head.Load().version, nil
	}
	delta, err := b.Delta(s.filter, s.dims)
	if err != nil {
		return 0, err
	}
	keys := make([]int, 0, len(delta))
	for k := range delta {
		keys = append(keys, k)
	}
	sort.Ints(keys)

	s.mu.Lock()
	cur := s.head.Load()
	old := make([]float64, len(keys))
	if _, err := cur.resolve(ctx, keys, old); err != nil {
		s.mu.Unlock()
		return 0, fmt.Errorf("mvcc: reading current coefficients: %w", err)
	}
	// old becomes the new absolute values in place; explicit zeros stay:
	// they shadow nonzero base values.
	mass, nonzero := cur.mass, cur.nonzero
	for i, k := range keys {
		nv := old[i] + delta[k]
		mass += math.Abs(nv) - math.Abs(old[i])
		switch {
		case nv != 0 && old[i] == 0:
			nonzero++
		case nv == 0 && old[i] != 0:
			nonzero--
		}
		old[i] = nv
	}
	nv := &view{
		version:     cur.version + 1,
		baseVersion: cur.baseVersion,
		rawBase:     cur.rawBase,
		base:        cur.base,
		ov:          cur.ov.Merge(keys, old),
		tuples:      cur.tuples + b.TupleWeight(),
		mass:        mass,
		nonzero:     nonzero,
		pins:        new(atomic.Int64),
	}
	s.head.Store(nv)
	s.retained = append(s.retained, nv)
	s.trimLocked()
	s.mu.Unlock()

	s.applies.Add(1)
	s.appliedTuples.Add(int64(len(b.ops)))
	s.appliedKeys.Add(int64(len(keys)))
	s.maybeCompact(nv)
	return nv.version, nil
}

// trimLocked drops versions beyond the retention window from the
// addressable ring, oldest first, stopping at the first pinned version.
// Dropped views stay alive for any reader still holding them.
func (s *Store) trimLocked() {
	for len(s.retained) > s.cfg.Retain+1 && s.retained[0].pins.Load() == 0 {
		s.retained[0] = nil
		s.retained = s.retained[1:]
	}
}

// maybeCompact starts a single-flight background compaction when the
// overlay holds more entries than MaxLayerKeys.
func (s *Store) maybeCompact(v *view) {
	if s.cfg.DisableAutoCompact || v.ov.Len() <= s.cfg.MaxLayerKeys {
		return
	}
	if !s.compacting.CompareAndSwap(false, true) {
		return
	}
	s.compactWG.Add(1)
	go func() {
		defer s.compactWG.Done()
		defer s.compacting.Store(false)
		// Background compaction cannot report; failures (a damaged base
		// file among them) leave the overlay in place (correct, just larger)
		// and the next Apply re-triggers.
		_ = s.Compact(context.Background())
	}()
}

// WaitCompactions blocks until any in-flight background compaction
// finishes: before its base is closed (a mapped file a fold may be
// walking), and in tests.
func (s *Store) WaitCompactions() { s.compactWG.Wait() }

// Compact folds the current overlay into a freshly built base and swaps it
// in atomically, keeping whatever was written while the fold ran. The old
// base is never mutated, so in-flight readers and pinned snapshots are
// untouched; the compacted view serves bit-identical values (a verbatim
// copy of the merged floats) with identical mass, tuple count, and version.
// A base that fails to enumerate (a mapped file's damaged block) is an
// error, and the overlay keeps serving over the old base.
func (s *Store) Compact(ctx context.Context) error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	start := time.Now()
	snap := s.head.Load()
	if snap.version == snap.baseVersion {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// The snapshot's own walk is the fold: one ascending merge of its overlay
	// and its base, each nonzero coefficient once, an explicit zero of the
	// overlay not at all. The snapshot knows how many coefficients that is,
	// so Build sizes the target once — the array or the sparse store, by the
	// rule every loader uses — and it is served through the same chain
	// function as the base the store was opened with.
	nb, err := storage.Build(s.cells, snap.nonzero, snap.Walk)
	if err != nil {
		return fmt.Errorf("mvcc: compacting: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	s.mu.Lock()
	cur := s.head.Load()
	// The new base serves snap's values, so the head keeps only the entries
	// written while the fold ran: those snap's overlay lacks or holds with
	// other bits.
	nv := &view{
		version:     cur.version,
		baseVersion: snap.version,
		rawBase:     nb,
		ov:          cur.ov.Without(&snap.ov),
		tuples:      cur.tuples,
		mass:        cur.mass,
		nonzero:     cur.nonzero,
		pins:        cur.pins,
	}
	nv.base = s.serve(nb)
	s.head.Store(nv)
	s.replaceRetainedLocked(nv)
	s.mu.Unlock()

	// A mapped version-0 base is no longer the head's: its pages go back to
	// the kernel. Readers still on an older version fault in what they read,
	// so every fold repeats the drop.
	if s.mapped != nil {
		s.mapped.DropPages()
	}
	s.compactions.Add(1)
	s.compactedLayers.Add(int64(snap.version - snap.baseVersion))
	compactSeconds.Load().Observe(time.Since(start).Seconds())
	return nil
}

// View returns the current head snapshot as a read surface. The returned
// store is immutable — a progressive run or exact pass bound to it is
// bit-stable however many versions land during the drain — and stays alive
// as long as the caller references it (no pin bookkeeping; use Snapshot for
// version-addressable retention).
func (s *Store) View() storage.Store { return s.head.Load() }

// Snapshot pins the current head: the version stays addressable by
// SnapshotAt until Release, and the pinned-snapshot gauge tracks it.
func (s *Store) Snapshot() *Snapshot {
	s.mu.Lock()
	v := s.head.Load()
	v.pins.Add(1)
	s.mu.Unlock()
	s.pinned.Add(1)
	return &Snapshot{s: s, v: v}
}

// SnapshotAt pins the retained snapshot of a specific version, or returns
// ErrVersionNotRetained.
func (s *Store) SnapshotAt(ver Version) (*Snapshot, error) {
	s.mu.Lock()
	for _, v := range s.retained {
		if v.version == ver {
			v.pins.Add(1)
			s.mu.Unlock()
			s.pinned.Add(1)
			return &Snapshot{s: s, v: v}, nil
		}
	}
	s.mu.Unlock()
	return nil, fmt.Errorf("%w: version %d (head %d, %d retained)",
		ErrVersionNotRetained, ver, s.head.Load().version, s.Stats().Retained)
}

// Snapshot is a pinned, release-counted snapshot handle.
type Snapshot struct {
	s        *Store
	v        *view
	released atomic.Bool
}

// View returns the snapshot's read surface (immutable, concurrent-safe).
func (sn *Snapshot) View() storage.Store { return sn.v }

// Version returns the pinned version.
func (sn *Snapshot) Version() Version { return sn.v.version }

// TupleWeight returns the net tuple weight the snapshot represents.
func (sn *Snapshot) TupleWeight() float64 { return sn.v.tuples }

// Mass returns the snapshot's coefficient mass Σ|Δ̂[ξ]| (the Theorem-1
// constant K).
func (sn *Snapshot) Mass() float64 { return sn.v.mass }

// Nonzero returns the snapshot's nonzero coefficient count.
func (sn *Snapshot) Nonzero() int { return sn.v.nonzero }

// Release unpins the snapshot. Idempotent; the data stays readable through
// View for as long as the handle is referenced, but the version may stop
// being addressable by SnapshotAt.
func (sn *Snapshot) Release() {
	if sn == nil || !sn.released.CompareAndSwap(false, true) {
		return
	}
	sn.v.pins.Add(-1)
	sn.s.pinned.Add(-1)
}

// --- storage.Store on the store itself ---
//
// Reads through the Store resolve the head per call: composing wrappers
// (instrumentation, caches) and facade paths that do one-shot reads work
// unchanged. Evaluation paths needing a stable view across many reads must
// capture View()/Snapshot() instead.

// BatchGetCtx implements storage.Store against the current head.
func (s *Store) BatchGetCtx(ctx context.Context, keys []int, dst []float64) error {
	return s.head.Load().BatchGetCtx(ctx, keys, dst)
}

// NonzeroCount implements storage.Store for the current head.
func (s *Store) NonzeroCount() int { return s.head.Load().nonzero }

// Walk implements storage.Enumerable for the current head.
func (s *Store) Walk(fn func(key int, value float64) bool) error {
	return s.head.Load().Walk(fn)
}

// Mass returns the head's coefficient mass (deterministic: the mass New was
// handed plus exact per-Apply increments, carried across compactions).
func (s *Store) Mass() float64 { return s.head.Load().mass }

// TupleWeight returns the head's net tuple weight.
func (s *Store) TupleWeight() float64 { return s.head.Load().tuples }

// Head returns the current version.
func (s *Store) Head() Version { return s.head.Load().version }

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	// Version is the head version (number of applies since open).
	Version Version `json:"version"`
	// Layers counts the write batches above the head's base (version minus
	// the version the base folds through); LayerKeys the entries in the
	// head's overlay (distinct keys).
	Layers    int `json:"layers"`
	LayerKeys int `json:"layer_keys"`
	// Retained is how many versions SnapshotAt can address right now.
	Retained int `json:"retained"`
	// Pinned counts outstanding Snapshot handles.
	Pinned int64 `json:"pinned"`
	// Applies/AppliedTuples/AppliedKeys count published batches, their tuple
	// operations, and the coefficients they touched.
	Applies       int64 `json:"applies"`
	AppliedTuples int64 `json:"applied_tuples"`
	AppliedKeys   int64 `json:"applied_keys"`
	// Compactions counts completed base folds; CompactedLayers the write
	// batches they folded.
	Compactions     int64 `json:"compactions"`
	CompactedLayers int64 `json:"compacted_layers"`
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	retained := len(s.retained)
	s.mu.Unlock()
	h := s.head.Load()
	return Stats{
		Version:         h.version,
		Layers:          int(h.version - h.baseVersion),
		LayerKeys:       h.ov.Len(),
		Retained:        retained,
		Pinned:          s.pinned.Load(),
		Applies:         s.applies.Load(),
		AppliedTuples:   s.appliedTuples.Load(),
		AppliedKeys:     s.appliedKeys.Load(),
		Compactions:     s.compactions.Load(),
		CompactedLayers: s.compactedLayers.Load(),
	}
}

var _ storage.Enumerable = (*Store)(nil)
