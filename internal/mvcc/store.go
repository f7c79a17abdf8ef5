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
	// DefaultMaxLayers triggers compaction when the overlay grows past this
	// many layers (each read probes every layer before the base).
	DefaultMaxLayers = 16
	// DefaultMaxLayerKeys triggers compaction when the total overlay entries
	// across layers exceed this count, whatever the layer count.
	DefaultMaxLayerKeys = 1 << 17
	// DefaultRetain is how many historical versions stay addressable by
	// SnapshotAt behind the head.
	DefaultRetain = 8
)

// Config tunes the store's compaction and retention policy. The zero value
// selects every default.
type Config struct {
	// MaxLayers bounds the overlay depth before a background compaction is
	// triggered (≤0 selects DefaultMaxLayers).
	MaxLayers int
	// MaxLayerKeys bounds the total overlay entries across layers before a
	// background compaction is triggered (≤0 selects DefaultMaxLayerKeys).
	MaxLayerKeys int
	// Retain is how many versions behind the head stay addressable by
	// SnapshotAt (≤0 selects DefaultRetain). Pinned versions are never
	// dropped while pinned.
	Retain int
	// DisableAutoCompact turns the background compactor off; compaction then
	// runs only through explicit Compact calls. Deterministic tests use this.
	DisableAutoCompact bool
}

// Layer is one immutable published write batch: the merged *absolute*
// coefficient values of every key the batch touched. Values merge
// newest-wins over older layers and the base; an explicit zero shadows a
// nonzero base coefficient (a delete). Storing absolutes rather than deltas
// makes overlay reads one lookup (no summing across layers) and makes
// compaction a verbatim copy — bit-identical by construction.
type Layer struct {
	version Version
	vals    map[int]float64
}

// Version returns the version this layer published.
func (l *Layer) Version() Version { return l.version }

// Len returns the number of coefficients the layer overrides.
func (l *Layer) Len() int { return len(l.vals) }

// view is one immutable snapshot state: a frozen base store plus the ordered
// overlay (newest first). Views are never mutated after publication — the
// head pointer swaps to a new view instead — so any reader holding one (a
// progressive run, a pinned snapshot, a session cache) observes bit-stable
// coefficients forever, whatever lands after it.
type view struct {
	version Version
	// rawBase is the unwrapped, enumerable base (compaction source); base
	// is the top of the serving chain the store's base-chain function built
	// over it (see SetBaseChain).
	rawBase storage.Store
	base    storage.Store
	// layers is the overlay, newest first.
	layers    []*Layer
	layerKeys int
	// tuples is the net tuple weight; mass is Σ|coefficient| (the Theorem-1
	// constant K), maintained incrementally and carried verbatim across
	// compaction so bounds are stable; nonzero counts nonzero coefficients.
	tuples  float64
	mass    float64
	nonzero int
	// retr is the owning store's shared retrieval counter; pins counts
	// explicit retention pins and is shared between re-publications of the
	// same version (base chain rebuilds, compaction).
	retr *atomic.Int64
	pins *atomic.Int64
}

// lookup resolves key through the overlay; ok is false when the base must be
// consulted.
func (v *view) lookup(key int) (float64, bool) {
	for _, l := range v.layers {
		if val, ok := l.vals[key]; ok {
			return val, true
		}
	}
	return 0, false
}

// BatchGetCtx implements storage.Store: overlay hits are resolved in-memory
// (they cannot fail), the remainder takes one batched base read, and partial
// base failures are remapped to the caller's positions — so retry,
// coalescing and degraded-run semantics compose through the overlay
// unchanged.
func (v *view) BatchGetCtx(ctx context.Context, keys []int, dst []float64) error {
	if len(keys) != len(dst) {
		panic("mvcc: BatchGetCtx keys/dst length mismatch")
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	v.retr.Add(int64(len(keys)))
	base, err := v.resolve(ctx, keys, dst)
	// EXPLAIN ANALYZE attribution: keys answered by the snapshot's write
	// layers vs delegated to the base store. Nil profile = no-op.
	obs.ProfileFrom(ctx).AddMVCC(len(keys)-base, base)
	return err
}

// resolve fills dst from the overlay and fetches the overlay misses from the
// base as one sub-batch, remapping a partial failure to the caller's
// positions. It returns how many keys went to the base.
func (v *view) resolve(ctx context.Context, keys []int, dst []float64) (int, error) {
	if len(v.layers) == 0 {
		return len(keys), v.base.BatchGetCtx(ctx, keys, dst)
	}
	// The sub-batch scratch is sized from the batch at the first overlay
	// miss, so a call allocates a fixed number of slices, not one per growth.
	var subKeys []int
	var subIdx []int // sub-batch position → caller position
	for i, k := range keys {
		if val, ok := v.lookup(k); ok {
			dst[i] = val
			continue
		}
		if subKeys == nil {
			subKeys = make([]int, 0, len(keys)-i)
			subIdx = make([]int, 0, len(keys)-i)
		}
		subKeys = append(subKeys, k)
		subIdx = append(subIdx, i)
	}
	if len(subKeys) == 0 {
		return 0, nil
	}
	subDst := make([]float64, len(subKeys))
	err := v.base.BatchGetCtx(ctx, subKeys, subDst)
	// On a partial failure the unlisted positions still hold valid values
	// (the Store contract); copy everything back and remap the listed ones.
	for i, j := range subIdx {
		dst[j] = subDst[i]
	}
	if err != nil {
		var be *storage.BatchError
		if errors.As(err, &be) {
			remapped := make([]storage.KeyError, len(be.Failed))
			for i, ke := range be.Failed {
				remapped[i] = storage.KeyError{Index: subIdx[ke.Index], Key: ke.Key, Err: ke.Err}
			}
			err = &storage.BatchError{Failed: remapped}
		}
	}
	return len(subKeys), err
}

// lookupUncounted reads current coefficient values for Apply's merge without
// counting retrievals (maintenance reads, like Updatable.Add, are not part
// of the paper's I/O cost measure).
func (v *view) lookupUncounted(ctx context.Context, keys []int, dst []float64) error {
	_, err := v.resolve(ctx, keys, dst)
	return err
}

// Retrievals implements storage.Store (shared across every view of the
// owning store).
func (v *view) Retrievals() int64 { return v.retr.Load() }

// ResetStats implements storage.Store.
func (v *view) ResetStats() { v.retr.Store(0) }

// NonzeroCount implements storage.Store.
func (v *view) NonzeroCount() int { return v.nonzero }

// ConcurrentSafe implements the storage.IsConcurrent capability check:
// views are immutable and the base chain is concurrent-safe, so any number
// of goroutines may read.
func (v *view) ConcurrentSafe() bool { return true }

// InMemory implements the storage.IsInMemory capability check: the overlay
// is in-memory maps, so a view answers from memory when its base chain does.
func (v *view) InMemory() bool { return storage.IsInMemory(v.base) }

// ForEachNonzero implements storage.Enumerable: overlay keys newest-wins
// first, then the base's keys not shadowed by any layer. Enumeration order
// is unspecified (map order), matching the in-memory stores.
func (v *view) ForEachNonzero(fn func(key int, value float64) bool) {
	seen := make(map[int]struct{}, v.layerKeys)
	for _, l := range v.layers {
		for k, val := range l.vals {
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			if val != 0 {
				if !fn(k, val) {
					return
				}
			}
		}
	}
	v.rawBase.(storage.Enumerable).ForEachNonzero(func(k int, val float64) bool {
		if _, shadowed := seen[k]; shadowed {
			return true
		}
		return fn(k, val)
	})
}

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

	head       atomic.Pointer[view]
	retrievals atomic.Int64

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
// must stop writing to it directly). tuples seeds the tuple count the view
// represents; f and dims are the filter and per-dimension domain sizes
// batches are transformed under.
func New(base storage.Store, f *wavelet.Filter, dims []int, tuples int64, cfg Config) (*Store, error) {
	if base == nil || f == nil {
		return nil, fmt.Errorf("mvcc: nil base store or filter")
	}
	enum, ok := base.(storage.Enumerable)
	if !ok {
		return nil, fmt.Errorf("mvcc: base store %T cannot enumerate its coefficients", base)
	}
	if cfg.MaxLayers <= 0 {
		cfg.MaxLayers = DefaultMaxLayers
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
	var mass float64
	enum.ForEachNonzero(func(_ int, v float64) bool {
		mass += math.Abs(v)
		return true
	})
	v0 := &view{
		version: 0,
		rawBase: base,
		base:    base,
		tuples:  float64(tuples),
		mass:    mass,
		nonzero: base.NonzeroCount(),
		retr:    &s.retrievals,
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
// for concurrent retrieval. Overlay layers are in-memory maps and are not
// served through it. nil restores the default: the base served bare, which
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
// rebuilt by the current chain function. Values, version, layers and pin
// accounting are untouched.
func (s *Store) republishBaseLocked() {
	cur := s.head.Load()
	nv := &view{
		version:   cur.version,
		rawBase:   cur.rawBase,
		layers:    cur.layers,
		layerKeys: cur.layerKeys,
		tuples:    cur.tuples,
		mass:      cur.mass,
		nonzero:   cur.nonzero,
		retr:      cur.retr,
		pins:      cur.pins,
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

// Apply transforms the batch in one sparse pass, merges the resulting
// coefficient deltas with the current values, and publishes the result as a
// new immutable layer — the new head version, returned. In-flight reads and
// pinned snapshots are untouched: they keep serving the state they captured.
// An empty (or nil) batch returns the current version without publishing.
// On error nothing is published.
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
	if err := cur.lookupUncounted(ctx, keys, old); err != nil {
		s.mu.Unlock()
		return 0, fmt.Errorf("mvcc: reading current coefficients: %w", err)
	}
	vals := make(map[int]float64, len(keys))
	mass, nonzero := cur.mass, cur.nonzero
	for i, k := range keys {
		nv := old[i] + delta[k]
		vals[k] = nv // explicit zeros stay: they shadow nonzero base values
		mass += math.Abs(nv) - math.Abs(old[i])
		switch {
		case nv != 0 && old[i] == 0:
			nonzero++
		case nv == 0 && old[i] != 0:
			nonzero--
		}
	}
	layer := &Layer{version: cur.version + 1, vals: vals}
	layers := make([]*Layer, 0, len(cur.layers)+1)
	layers = append(layers, layer)
	layers = append(layers, cur.layers...)
	nv := &view{
		version:   cur.version + 1,
		rawBase:   cur.rawBase,
		base:      cur.base,
		layers:    layers,
		layerKeys: cur.layerKeys + len(vals),
		tuples:    cur.tuples + b.TupleWeight(),
		mass:      mass,
		nonzero:   nonzero,
		retr:      &s.retrievals,
		pins:      new(atomic.Int64),
	}
	s.head.Store(nv)
	s.retained = append(s.retained, nv)
	s.trimLocked()
	s.mu.Unlock()

	s.applies.Add(1)
	s.appliedTuples.Add(int64(len(b.ops)))
	s.appliedKeys.Add(int64(len(vals)))
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
// overlay exceeds the configured layer-count or layer-size policy.
func (s *Store) maybeCompact(v *view) {
	if s.cfg.DisableAutoCompact {
		return
	}
	if len(v.layers) <= s.cfg.MaxLayers && v.layerKeys <= s.cfg.MaxLayerKeys {
		return
	}
	if !s.compacting.CompareAndSwap(false, true) {
		return
	}
	s.compactWG.Add(1)
	go func() {
		defer s.compactWG.Done()
		defer s.compacting.Store(false)
		// Background compaction cannot report; failures leave the overlay in
		// place (correct, just deeper) and the next Apply re-triggers.
		_ = s.Compact(context.Background())
	}()
}

// WaitCompactions blocks until any in-flight background compaction
// finishes. Tests use it; serving code never needs to.
func (s *Store) WaitCompactions() { s.compactWG.Wait() }

// Compact folds the current overlay into a freshly built base and swaps it
// in atomically, keeping any layers published while the fold ran. The old
// base is never mutated, so in-flight readers and pinned snapshots are
// untouched; the compacted view serves bit-identical values (a verbatim
// copy of the merged floats) with identical mass, tuple count, and version.
func (s *Store) Compact(ctx context.Context) error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	start := time.Now()
	snap := s.head.Load()
	if len(snap.layers) == 0 {
		return nil
	}
	// The snapshot knows how many coefficients the fold will write, so the
	// target is sized once — as an array or a table, by the rule every loader
	// uses — and is served through the same chain function as the base the
	// store was opened with.
	nb := storage.NewMemoryStore(s.cells, snap.nonzero, 1)
	// Newest-wins fold: overlay keys first (explicit zeros simply aren't
	// written — an absent base key reads 0), then unshadowed base keys.
	seen := make(map[int]struct{}, snap.layerKeys)
	for _, l := range snap.layers {
		for k, v := range l.vals {
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			if v != 0 {
				nb.Add(k, v)
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	snap.rawBase.(storage.Enumerable).ForEachNonzero(func(k int, v float64) bool {
		if _, shadowed := seen[k]; !shadowed {
			nb.Add(k, v)
		}
		return true
	})
	if err := ctx.Err(); err != nil {
		return err
	}

	s.mu.Lock()
	cur := s.head.Load()
	// Layers published while the fold ran are a prefix (Apply prepends);
	// keep them over the new base.
	fresh := len(cur.layers) - len(snap.layers)
	layers := append([]*Layer(nil), cur.layers[:fresh]...)
	layerKeys := 0
	for _, l := range layers {
		layerKeys += len(l.vals)
	}
	nv := &view{
		version:   cur.version,
		rawBase:   nb,
		layers:    layers,
		layerKeys: layerKeys,
		tuples:    cur.tuples,
		mass:      cur.mass,
		nonzero:   cur.nonzero,
		retr:      &s.retrievals,
		pins:      cur.pins,
	}
	nv.base = s.serve(nb)
	s.head.Store(nv)
	s.replaceRetainedLocked(nv)
	s.mu.Unlock()

	s.compactions.Add(1)
	s.compactedLayers.Add(int64(len(snap.layers)))
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

// --- storage.Store / Updatable on the store itself ---
//
// Reads through the Store resolve the head per call: composing wrappers
// (instrumentation, caches) and facade paths that do one-shot reads work
// unchanged. Evaluation paths needing a stable view across many reads must
// capture View()/Snapshot() instead.

// BatchGetCtx implements storage.Store against the current head.
func (s *Store) BatchGetCtx(ctx context.Context, keys []int, dst []float64) error {
	return s.head.Load().BatchGetCtx(ctx, keys, dst)
}

// Retrievals implements storage.Store: reads through every view count here.
func (s *Store) Retrievals() int64 { return s.retrievals.Load() }

// ResetStats implements storage.Store.
func (s *Store) ResetStats() { s.retrievals.Store(0) }

// NonzeroCount implements storage.Store for the current head.
func (s *Store) NonzeroCount() int { return s.head.Load().nonzero }

// Add implements storage.Updatable by refusing: a direct single-coefficient
// write would bypass versioning, snapshot isolation and the mass/nonzero
// bookkeeping. Every write goes through Apply.
func (s *Store) Add(int, float64) {
	panic("mvcc: direct Add bypasses versioning; batch writes through Apply")
}

// ConcurrentSafe implements the storage.IsConcurrent capability check.
func (s *Store) ConcurrentSafe() bool { return true }

// InMemory implements the storage.IsInMemory capability check for the
// current head.
func (s *Store) InMemory() bool { return s.head.Load().InMemory() }

// ForEachNonzero implements storage.Enumerable for the current head.
func (s *Store) ForEachNonzero(fn func(key int, value float64) bool) {
	s.head.Load().ForEachNonzero(fn)
}

// Mass returns the head's coefficient mass (deterministic: the open-time
// enumeration plus exact per-Apply increments, carried across compactions).
func (s *Store) Mass() float64 { return s.head.Load().mass }

// TupleWeight returns the head's net tuple weight.
func (s *Store) TupleWeight() float64 { return s.head.Load().tuples }

// Head returns the current version.
func (s *Store) Head() Version { return s.head.Load().version }

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	// Version is the head version (number of applies since open).
	Version Version `json:"version"`
	// Layers is the head overlay depth; LayerKeys the total overlay entries.
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
	// Compactions counts completed base folds; CompactedLayers the layers
	// they folded.
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
		Layers:          len(h.layers),
		LayerKeys:       h.layerKeys,
		Retained:        retained,
		Pinned:          s.pinned.Load(),
		Applies:         s.applies.Load(),
		AppliedTuples:   s.appliedTuples.Load(),
		AppliedKeys:     s.appliedKeys.Load(),
		Compactions:     s.compactions.Load(),
		CompactedLayers: s.compactedLayers.Load(),
	}
}

var (
	_ storage.Updatable  = (*Store)(nil)
	_ storage.Enumerable = (*Store)(nil)
)
