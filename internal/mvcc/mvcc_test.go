package mvcc

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/wavelet"
)

// testDims is a small 2-D power-of-two domain shared by the tests.
var testDims = []int{8, 8}

// seedTuples is the deterministic base dataset: inserted into the seed store
// with the legacy single-tuple path before the MVCC store opens over it.
var seedTuples = [][]int{
	{0, 0}, {1, 3}, {2, 5}, {3, 1}, {4, 7}, {5, 2}, {6, 6}, {7, 4}, {1, 3},
}

// newSeedStore builds a HashStore holding the transform of seedTuples.
func newSeedStore(t *testing.T, f *wavelet.Filter) *storage.HashStore {
	t.Helper()
	st := storage.NewHashStore()
	for _, c := range seedTuples {
		if err := core.InsertTuple(st, f, testDims, c); err != nil {
			t.Fatalf("seeding: %v", err)
		}
	}
	return st
}

// newTestStore opens an MVCC store over a fresh seed with auto-compaction off
// (tests trigger compaction explicitly for determinism).
func newTestStore(t *testing.T, cfg Config) *Store {
	t.Helper()
	cfg.DisableAutoCompact = true
	seed := newSeedStore(t, wavelet.Haar)
	s, err := New(seed, wavelet.Haar, testDims, int64(len(seedTuples)), massOf(seed), cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// dump enumerates every nonzero coefficient of st into a map.
func dump(st storage.Enumerable) map[int]float64 {
	m := make(map[int]float64)
	if err := st.Walk(func(k int, v float64) bool {
		m[k] = v
		return true
	}); err != nil {
		panic(err)
	}
	return m
}

// massOf sums |v| over st's nonzero coefficients: the mass New is handed.
func massOf(st storage.Enumerable) float64 {
	var mass float64
	if err := st.Walk(func(_ int, v float64) bool {
		mass += math.Abs(v)
		return true
	}); err != nil {
		panic(err)
	}
	return mass
}

// allKeys returns the union of the key sets of the given maps.
func allKeys(ms ...map[int]float64) map[int]struct{} {
	keys := make(map[int]struct{})
	for _, m := range ms {
		for k := range m {
			keys[k] = struct{}{}
		}
	}
	return keys
}

// TestSingleOpApplyMatchesInsertTuple checks the bit-identity claim that lets
// the facade route Insert/Delete through Apply: a one-op batch must publish
// exactly the coefficients the legacy single-tuple incremental path writes.
func TestSingleOpApplyMatchesInsertTuple(t *testing.T) {
	s := newTestStore(t, Config{})
	legacy := newSeedStore(t, wavelet.Haar)

	coords := [][]int{{3, 3}, {0, 7}, {3, 3}}
	for _, c := range coords {
		if _, err := s.Apply(context.Background(), NewBatch().Add(c, 1)); err != nil {
			t.Fatalf("Apply: %v", err)
		}
		if err := core.InsertTuple(legacy, wavelet.Haar, testDims, c); err != nil {
			t.Fatalf("InsertTuple: %v", err)
		}
	}
	if _, err := s.Apply(context.Background(), NewBatch().Remove(coords[0])); err != nil {
		t.Fatalf("Apply remove: %v", err)
	}
	if err := core.DeleteTuple(legacy, wavelet.Haar, testDims, coords[0]); err != nil {
		t.Fatalf("DeleteTuple: %v", err)
	}

	got, want := dump(s), dump(legacy)
	for k := range allKeys(got, want) {
		if got[k] != want[k] {
			t.Fatalf("key %d: mvcc %v, legacy %v (must be bit-identical)", k, got[k], want[k])
		}
	}
}

// TestBatchMatchesSequentialInserts checks that one multi-tuple batch is
// numerically equivalent to applying its tuples one at a time (association
// of the float additions differs, so tolerance rather than bit equality).
func TestBatchMatchesSequentialInserts(t *testing.T) {
	batched := newTestStore(t, Config{})
	oneByOne := newTestStore(t, Config{})

	rng := rand.New(rand.NewSource(7))
	b := NewBatch()
	for i := 0; i < 200; i++ {
		c := []int{rng.Intn(testDims[0]), rng.Intn(testDims[1])}
		w := float64(rng.Intn(5) - 2)
		if w == 0 {
			w = 1
		}
		b.Add(c, w)
		if _, err := oneByOne.Apply(context.Background(), NewBatch().Add(c, w)); err != nil {
			t.Fatalf("sequential Apply: %v", err)
		}
	}
	v, err := batched.Apply(context.Background(), b)
	if err != nil {
		t.Fatalf("batched Apply: %v", err)
	}
	if v != 1 {
		t.Fatalf("batched store at version %d, want 1", v)
	}
	if oneByOne.Head() != 200 {
		t.Fatalf("sequential store at version %d, want 200", oneByOne.Head())
	}

	got, want := dump(batched), dump(oneByOne)
	for k := range allKeys(got, want) {
		if diff := math.Abs(got[k] - want[k]); diff > 1e-9 {
			t.Fatalf("key %d: batched %v, sequential %v (diff %g)", k, got[k], want[k], diff)
		}
	}
	if bw, sw := batched.TupleWeight(), oneByOne.TupleWeight(); bw != sw {
		t.Fatalf("tuple weight: batched %v, sequential %v", bw, sw)
	}
}

// TestZeroShadowsBase checks the delete path: a coefficient driven to zero by
// a layer must read as zero even though the base still holds the old nonzero.
// A one-tuple dataset makes the cancellation exact (v + (-v) == 0 in IEEE for
// identical magnitudes), so the zeros must be literal, not just tiny.
func TestZeroShadowsBase(t *testing.T) {
	seed := storage.NewHashStore()
	coords := []int{1, 3}
	if err := core.InsertTuple(seed, wavelet.Haar, testDims, coords); err != nil {
		t.Fatalf("seeding: %v", err)
	}
	s, err := New(seed, wavelet.Haar, testDims, 1, massOf(seed), Config{DisableAutoCompact: true})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	before := dump(s)
	if len(before) == 0 {
		t.Fatalf("seed transform is empty; test is vacuous")
	}

	if _, err := s.Apply(context.Background(), NewBatch().Remove(coords)); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	for k := range before {
		if got := storage.Get(s, k); got != 0 {
			t.Fatalf("key %d reads %v after full delete, want exactly 0", k, got)
		}
		// The shadowed base value is still there underneath — the zero is the
		// layer speaking, not the base.
		if base := storage.Get(seed, k); base == 0 {
			t.Fatalf("base key %d lost its value; shadowing is vacuous", k)
		}
	}
	after := dump(s)
	if len(after) != 0 {
		t.Fatalf("enumeration still sees %d nonzeros after full delete", len(after))
	}
	if nz := s.NonzeroCount(); nz != 0 {
		t.Fatalf("NonzeroCount = %d after full delete, want 0", nz)
	}
	if w := s.TupleWeight(); w != 0 {
		t.Fatalf("TupleWeight = %v after full delete, want 0", w)
	}
}

// TestSnapshotIsolation checks that a pinned snapshot keeps serving its
// captured state bit-stably while the head moves on.
func TestSnapshotIsolation(t *testing.T) {
	s := newTestStore(t, Config{})
	sn := s.Snapshot()
	defer sn.Release()
	pinnedState := dump(sn.View().(storage.Enumerable))
	pinnedMass := sn.Mass()

	for i := 0; i < 20; i++ {
		if _, err := s.Apply(context.Background(), NewBatch().Add([]int{i % 8, (3 * i) % 8}, 2)); err != nil {
			t.Fatalf("Apply: %v", err)
		}
	}
	if s.Head() != 20 {
		t.Fatalf("head at %d, want 20", s.Head())
	}
	if sn.Version() != 0 {
		t.Fatalf("snapshot drifted to version %d", sn.Version())
	}
	for k, v := range pinnedState {
		if got := storage.Get(sn.View(), k); got != v {
			t.Fatalf("pinned key %d moved: %v → %v", k, v, got)
		}
	}
	if sn.Mass() != pinnedMass {
		t.Fatalf("pinned mass moved: %v → %v", pinnedMass, sn.Mass())
	}
	// And the head genuinely changed.
	if s.Mass() == pinnedMass {
		t.Fatalf("head mass unchanged after 20 applies")
	}
}

// TestCompactionEquivalence checks that compaction is invisible to readers:
// same values (bit-identical), same version, mass, tuple weight and nonzero
// count, and views captured before the swap keep serving.
func TestCompactionEquivalence(t *testing.T) {
	s := newTestStore(t, Config{})
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		b := NewBatch()
		for j := 0; j < 5; j++ {
			b.Add([]int{rng.Intn(8), rng.Intn(8)}, float64(1+rng.Intn(3)))
		}
		if _, err := s.Apply(context.Background(), b); err != nil {
			t.Fatalf("Apply: %v", err)
		}
	}
	preView := s.View()
	pre := dump(s)
	preStats := s.Stats()
	if preStats.Layers == 0 {
		t.Fatalf("no layers before compaction; test is vacuous")
	}
	mass, tuples, nz := s.Mass(), s.TupleWeight(), s.NonzeroCount()

	if err := s.Compact(context.Background()); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	post := dump(s)
	postStats := s.Stats()
	if postStats.Layers != 0 {
		t.Fatalf("%d layers survive a quiescent compaction", postStats.Layers)
	}
	if postStats.Version != preStats.Version {
		t.Fatalf("compaction moved version %d → %d", preStats.Version, postStats.Version)
	}
	for k := range allKeys(pre, post) {
		if pre[k] != post[k] {
			t.Fatalf("key %d: %v before, %v after compaction (must be bit-identical)", k, pre[k], post[k])
		}
	}
	if s.Mass() != mass || s.TupleWeight() != tuples || s.NonzeroCount() != nz {
		t.Fatalf("compaction changed bookkeeping: mass %v→%v tuples %v→%v nonzero %d→%d",
			mass, s.Mass(), tuples, s.TupleWeight(), nz, s.NonzeroCount())
	}
	// The pre-compaction view is immutable and still serves.
	for k, v := range pre {
		if got := storage.Get(preView, k); got != v {
			t.Fatalf("pre-compaction view key %d moved: %v → %v", k, v, got)
		}
	}
}

// TestCompactionKeepsConcurrentLayers checks back-to-back folds: apply,
// compact, apply, compact serves the state before the second fold. A write
// landing while a fold runs is TestCompactionRacingApply's.
func TestCompactionKeepsConcurrentLayers(t *testing.T) {
	s := newTestStore(t, Config{})
	if _, err := s.Apply(context.Background(), NewBatch().Add([]int{1, 1}, 1)); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if err := s.Compact(context.Background()); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if _, err := s.Apply(context.Background(), NewBatch().Add([]int{2, 2}, 3)); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	want := dump(s)
	if err := s.Compact(context.Background()); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	got := dump(s)
	for k := range allKeys(want, got) {
		if want[k] != got[k] {
			t.Fatalf("key %d: %v before, %v after second compaction", k, want[k], got[k])
		}
	}
	if s.Stats().Compactions != 2 {
		t.Fatalf("compactions = %d, want 2", s.Stats().Compactions)
	}
}

// blockingBase is a version-0 base whose first Walk — a fold's — waits until
// the test closes release, so writes can land while the fold runs.
type blockingBase struct {
	*storage.HashStore
	entered, release chan struct{}
	once             sync.Once
}

func (b *blockingBase) Walk(fn func(key int, value float64) bool) error {
	b.once.Do(func() {
		close(b.entered)
		<-b.release
	})
	return b.HashStore.Walk(fn)
}

// TestCompactionRacingApply: batches applied while a fold walks the base
// survive its swap. They rewrite a key the folded overlay holds to new bits,
// rewrite another to the bits it had, delete a base key and add a key
// nothing held; after the swap the store reads what a store that never
// compacted reads, key by key and bit for bit, and its head has exactly
// those batches above its base.
func TestCompactionRacingApply(t *testing.T) {
	ctx := context.Background()
	seed := newSeedStore(t, wavelet.Haar)
	base := &blockingBase{HashStore: seed, entered: make(chan struct{}), release: make(chan struct{})}
	s, err := New(base, wavelet.Haar, testDims, int64(len(seedTuples)), massOf(seed), Config{DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	oracle := newTestStore(t, Config{})
	apply := func(b *Batch) map[int]float64 {
		t.Helper()
		for _, st := range []*Store{s, oracle} {
			if _, err := st.Apply(ctx, b); err != nil {
				t.Fatal(err)
			}
		}
		d, err := b.Delta(wavelet.Haar, testDims)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	folded := apply(NewBatch().Add([]int{1, 1}, 1).Add([]int{6, 2}, 2))
	baseVals := dump(seed)

	done := make(chan error, 1)
	go func() { done <- s.Compact(ctx) }()
	<-base.entered
	during := []*Batch{
		NewBatch().Add([]int{1, 1}, 1),                     // new bits on folded keys
		NewBatch().Add([]int{2, 2}, 1).Remove([]int{3, 3}), // zero deltas: the same bits
		NewBatch().Remove([]int{4, 7}),                     // the only tuple under some base keys
		NewBatch().Add([]int{0, 6}, 1),                     // keys no one held
	}
	var deltas []map[int]float64
	for _, b := range during {
		deltas = append(deltas, apply(b))
	}
	close(base.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	want := dump(oracle)
	premise := map[string]bool{}
	for k := range folded {
		if deltas[0][k] != 0 {
			premise["new bits"] = true
		}
		if d, ok := deltas[1][k]; ok && d == 0 {
			premise["same bits"] = true
		}
	}
	for k, v := range baseVals {
		if _, ok := deltas[2][k]; ok && v != 0 && want[k] == 0 {
			premise["base key deleted"] = true
		}
	}
	for k := range deltas[3] {
		if _, held := folded[k]; !held && baseVals[k] == 0 && want[k] != 0 {
			premise["new key"] = true
		}
	}
	if len(premise) != 4 {
		t.Fatalf("the batches cover only %v; the test is vacuous", premise)
	}

	got := dump(s)
	for k := range allKeys(want, got) {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("key %d: %v after the fold, %v without it", k, got[k], want[k])
		}
	}
	cells := testDims[0] * testDims[1]
	keys := make([]int, cells)
	for k := range keys {
		keys[k] = k
	}
	gotRead, wantRead := make([]float64, cells), make([]float64, cells)
	if err := s.BatchGetCtx(ctx, keys, gotRead); err != nil {
		t.Fatal(err)
	}
	if err := oracle.BatchGetCtx(ctx, keys, wantRead); err != nil {
		t.Fatal(err)
	}
	for k := range keys {
		if math.Float64bits(gotRead[k]) != math.Float64bits(wantRead[k]) {
			t.Fatalf("key %d reads %v after the fold, %v without it", k, gotRead[k], wantRead[k])
		}
	}
	st := s.Stats()
	if st.Layers != len(during) || st.Compactions != 1 || st.CompactedLayers != 1 || st.Version != Version(len(during)+1) {
		t.Fatalf("after the fold: %+v, want %d layers above a base folded through version 1", st, len(during))
	}
	if s.Mass() != oracle.Mass() || s.NonzeroCount() != oracle.NonzeroCount() {
		t.Fatalf("mass %v, nonzero %d; without the fold %v, %d", s.Mass(), s.NonzeroCount(), oracle.Mass(), oracle.NonzeroCount())
	}
}

// droppingBase is a version-0 base that counts DropPages calls, as a mapped
// file would receive them.
type droppingBase struct {
	*storage.HashStore
	drops int
}

func (b *droppingBase) DropPages() { b.drops++ }

// TestCompactionDropsTheMappedBasesPages: every fold hands a mapped
// version-0 base's pages back — the first because it replaced the base, the
// later ones because readers on older versions may have faulted pages in
// again; a fold with no layers drops nothing.
func TestCompactionDropsTheMappedBasesPages(t *testing.T) {
	seed := newSeedStore(t, wavelet.Haar)
	base := &droppingBase{HashStore: seed}
	s, err := New(base, wavelet.Haar, testDims, int64(len(seedTuples)), massOf(seed), Config{DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	for want := 1; want <= 2; want++ {
		if _, err := s.Apply(context.Background(), NewBatch().Add([]int{want, 2}, 1)); err != nil {
			t.Fatal(err)
		}
		if err := s.Compact(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := s.Compact(context.Background()); err != nil { // no layers: no fold
			t.Fatal(err)
		}
		if base.drops != want {
			t.Fatalf("%d folds dropped the base's pages %d times", want, base.drops)
		}
	}
}

// TestRetentionAndPinning checks the SnapshotAt window: Retain bounds the
// addressable history, pinned versions survive the trim, and aged-out
// versions report ErrVersionNotRetained.
func TestRetentionAndPinning(t *testing.T) {
	s := newTestStore(t, Config{Retain: 2})
	pinned := s.Snapshot() // pins version 0
	for i := 0; i < 6; i++ {
		if _, err := s.Apply(context.Background(), NewBatch().Add([]int{i % 8, i % 8}, 1)); err != nil {
			t.Fatalf("Apply: %v", err)
		}
	}
	// Version 0 is pinned, so the trim stalls there and everything newer
	// stays addressable too (the ring only drops from the oldest end).
	sn0, err := s.SnapshotAt(0)
	if err != nil {
		t.Fatalf("pinned version 0 aged out: %v", err)
	}
	sn0.Release()
	pinned.Release()
	pinned.Release() // idempotent

	// Unpinned now: the next publish trims the ring down to Retain+1.
	if _, err := s.Apply(context.Background(), NewBatch().Add([]int{0, 1}, 1)); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if _, err := s.SnapshotAt(0); !errors.Is(err, ErrVersionNotRetained) {
		t.Fatalf("SnapshotAt(0) = %v, want ErrVersionNotRetained", err)
	}
	head := s.Head()
	sn, err := s.SnapshotAt(head - 2)
	if err != nil {
		t.Fatalf("SnapshotAt(head-2): %v", err)
	}
	if sn.Version() != head-2 {
		t.Fatalf("SnapshotAt returned version %d, want %d", sn.Version(), head-2)
	}
	sn.Release()
	if p := s.Stats().Pinned; p != 0 {
		t.Fatalf("pinned = %d after releases, want 0", p)
	}
}

// TestMassAndNonzeroBookkeeping cross-checks the incremental mass and nonzero
// accounting against a full re-enumeration after a messy update history.
func TestMassAndNonzeroBookkeeping(t *testing.T) {
	s := newTestStore(t, Config{})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		b := NewBatch()
		for j := 0; j < 4; j++ {
			b.Add([]int{rng.Intn(8), rng.Intn(8)}, float64(rng.Intn(7)-3))
		}
		if _, err := s.Apply(context.Background(), b); err != nil {
			t.Fatalf("Apply: %v", err)
		}
	}
	var mass float64
	nz := 0
	if err := s.Walk(func(_ int, v float64) bool {
		mass += math.Abs(v)
		nz++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(s.Mass() - mass); diff > 1e-9*(1+mass) {
		t.Fatalf("incremental mass %v, enumerated %v", s.Mass(), mass)
	}
	// Nonzero bookkeeping counts exact float zeros; cancellation to a tiny
	// residual is still nonzero, so the counts must agree exactly.
	if s.NonzeroCount() != nz {
		t.Fatalf("incremental nonzero %d, enumerated %d", s.NonzeroCount(), nz)
	}
}

// TestApplyValidation checks that malformed batches fail atomically: the
// error is reported and nothing publishes.
func TestApplyValidation(t *testing.T) {
	s := newTestStore(t, Config{})
	before := s.Head()
	cases := []*Batch{
		NewBatch().Add([]int{1}, 1),                        // wrong arity
		NewBatch().Add([]int{8, 0}, 1),                     // out of range
		NewBatch().Add([]int{0, -1}, 1),                    // negative
		NewBatch().Add([]int{1, 1}, 1).Add([]int{9, 9}, 1), // second op bad
	}
	for i, b := range cases {
		if _, err := s.Apply(context.Background(), b); err == nil {
			t.Fatalf("case %d: bad batch applied without error", i)
		}
	}
	if s.Head() != before {
		t.Fatalf("failed batches moved the head %d → %d", before, s.Head())
	}
	// Empty and nil batches are no-ops returning the current version.
	if v, err := s.Apply(context.Background(), nil); err != nil || v != before {
		t.Fatalf("nil batch: (%d, %v), want (%d, nil)", v, err, before)
	}
	if v, err := s.Apply(context.Background(), NewBatch()); err != nil || v != before {
		t.Fatalf("empty batch: (%d, %v), want (%d, nil)", v, err, before)
	}
}

// countingStore wraps a store and counts retrieval calls, standing in for
// the layers a base chain composes over the base.
type countingStore struct {
	storage.Store
	n atomic.Int64
}

func (c *countingStore) BatchGetCtx(ctx context.Context, keys []int, dst []float64) error {
	c.n.Add(1)
	return c.Store.BatchGetCtx(ctx, keys, dst)
}

// TestSetBaseChainUndo checks that SetBaseChain routes base reads (and only
// base reads) through the chain, and that setting nil removes it again.
func TestSetBaseChainUndo(t *testing.T) {
	s := newTestStore(t, Config{})
	var cs *countingStore
	s.SetBaseChain(func(raw storage.Store) storage.Store {
		cs = &countingStore{Store: raw}
		return cs
	})
	if cs == nil {
		t.Fatalf("chain not built on install")
	}
	// A layered key resolves in the overlay without touching the base.
	if _, err := s.Apply(context.Background(), NewBatch().Add([]int{5, 5}, 1)); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	layerKey := s.head.Load().ov.keys[0]
	base := cs.n.Load()
	storage.Get(s, layerKey)
	if cs.n.Load() != base {
		t.Fatalf("overlay read reached the base wrap")
	}
	// An unlayered base key goes through the wrap.
	_ = s.head.Load().rawBase.(storage.Enumerable).Walk(func(k int, _ float64) bool {
		if _, inLayer := s.head.Load().ov.lookup(k); !inLayer {
			storage.Get(s, k)
			return false
		}
		return true
	})
	if cs.n.Load() == base {
		t.Fatalf("base read did not reach the wrap")
	}
	s.SetBaseChain(nil)
	after := cs.n.Load()
	_ = s.head.Load().rawBase.(storage.Enumerable).Walk(func(k int, _ float64) bool {
		storage.Get(s, k)
		return false
	})
	if cs.n.Load() != after {
		t.Fatalf("undone wrap still sees reads")
	}
}

// TestConcurrentDrainWhileApply is the race check: captured views must serve
// bit-stable values while writers publish and the auto-compactor folds
// underneath them. Run with -race.
func TestConcurrentDrainWhileApply(t *testing.T) {
	seed := newSeedStore(t, wavelet.Haar)
	s, err := New(seed, wavelet.Haar, testDims, int64(len(seedTuples)), massOf(seed), Config{MaxLayerKeys: 32, Retain: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	stable := dump(s) // version-0 state every captured reader must keep seeing

	var readersWG, writersWG sync.WaitGroup
	readers := 4
	writers := 2
	stop := make(chan struct{})
	errs := make(chan error, readers+writers)

	view := s.View() // captured before any write
	for r := 0; r < readers; r++ {
		readersWG.Add(1)
		go func() {
			defer readersWG.Done()
			keys := make([]int, 0, len(stable))
			for k := range stable {
				keys = append(keys, k)
			}
			dst := make([]float64, len(keys))
			for i := 0; i < 200; i++ {
				if err := view.BatchGetCtx(context.Background(), keys, dst); err != nil {
					errs <- err
					return
				}
				for j, k := range keys {
					if dst[j] != stable[k] {
						errs <- errors.New("captured view drifted during concurrent applies")
						return
					}
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(seed int64) {
			defer writersWG.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				b := NewBatch()
				for j := 0; j < 3; j++ {
					b.Add([]int{rng.Intn(8), rng.Intn(8)}, 1)
				}
				if _, err := s.Apply(context.Background(), b); err != nil {
					errs <- err
					return
				}
			}
		}(int64(w + 1))
	}

	// Readers finishing (or failing) is the signal to stop the writers.
	readersWG.Wait()
	close(stop)
	writersWG.Wait()
	s.WaitCompactions()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}
