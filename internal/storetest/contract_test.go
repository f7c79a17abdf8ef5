package storetest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/mvcc"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/storage/layout"
	"repro/internal/wavelet"
)

// subject is one store under test.
type subject struct {
	store storage.Store
	// want is the dense content the store must serve: key k reads want[k].
	want []float64
	// bounded stores know their domain size, so key len(want) is out of
	// range for them; the others only reject negative keys.
	bounded bool
	// sharesFate marks the coordinator: the wire cannot carry a negative
	// key, so its shard's whole sub-batch fails with it.
	sharesFate bool
	// counts is what reaches beneath a layer that shares or counts reads
	// (cache, coalescing, instrument), set by the builds that have one; nil
	// counts what is asked of the store itself (counted).
	counts retrievalCount
}

// retrievalCount is a count of retrievals: a Counting, or the Counters an
// instrument layer adds to.
type retrievalCount interface{ Retrievals() int64 }

// counted returns the store to read through and the count of what those
// reads cost: the subject's own counts, or a Counting over the store.
func (s subject) counted() (storage.Store, retrievalCount) {
	if s.counts != nil {
		return s.store, s.counts
	}
	c := NewCounting(s.store)
	return c, c
}

var dims = []int{16, 16, 8}

// transformed returns the Db4 transform of a fixed random dataset and its
// tuple count.
func transformed(t *testing.T) ([]float64, int64) {
	t.Helper()
	d := dataset.Uniform(dataset.MustSchema([]string{"x", "y", "m"}, dims), 4000, 7)
	hat, err := d.Transform(wavelet.Db4)
	if err != nil {
		t.Fatal(err)
	}
	return hat, d.TupleCount
}

func testPlan(t *testing.T) *core.Plan {
	t.Helper()
	schema := dataset.MustSchema([]string{"x", "y", "m"}, dims)
	ranges, err := query.RandomPartition(schema, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := query.SumBatch(schema, ranges, "m")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.NewWaveletPlan(batch, wavelet.Db4)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func array(hat []float64) *storage.ArrayStore {
	return storage.NewArrayStore(append([]float64(nil), hat...))
}

// openLayout writes the nonzero entries of want as a layout and opens it,
// asserting the shape the writer's size rule picked.
func openLayout(t *testing.T, want []float64, shape string) subject {
	t.Helper()
	var keys []int
	var values []float64
	for k, v := range want {
		if v != 0 {
			keys, values = append(keys, k), append(values, v)
		}
	}
	path := filepath.Join(t.TempDir(), "m.wvls")
	// Small blocks, so batches cross them.
	wopts := layout.WriteOptions{Cells: len(want), BlockSize: 32}
	if err := layout.WriteFile(path, func(w io.Writer) error { return layout.Encode(w, keys, values, wopts) }); err != nil {
		t.Fatal(err)
	}
	s, err := layout.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	if s.Shape() != shape {
		t.Fatalf("%d coefficients of %d cells written in the %s shape, want %s", len(keys), len(want), s.Shape(), shape)
	}
	return subject{store: s, want: want, bounded: true}
}

// eighth keeps every eighth entry of the transform: under the quarter from
// which Build picks the array, and under the crossover from which a layout
// is written with rank words.
func eighth(hat []float64) []float64 {
	want := make([]float64, len(hat))
	for k := 0; k < len(hat); k += 8 {
		want[k] = hat[k]
	}
	return want
}

// memoryStore builds what storage.Build returns for the nonzero entries of
// want, the way a loader does: ascending keys, count declared up front.
func memoryStore(t *testing.T, want []float64, wantArray bool) subject {
	t.Helper()
	count := 0
	for _, v := range want {
		if v != 0 {
			count++
		}
	}
	s, err := storage.Build(len(want), count, storage.NewArrayStore(want).Walk)
	if err != nil {
		t.Fatal(err)
	}
	if _, isArray := s.(*storage.ArrayStore); isArray != wantArray {
		t.Fatalf("%d coefficients of %d cells are held as %T", count, len(want), s)
	}
	return subject{store: s, want: want, bounded: wantArray}
}

// mvccView opens an MVCC store over the sparse store of hat and applies two
// batches, the second taking back tuples of the first and of the base, so
// the overlay holds explicit zeros; folded compacts after the first and
// leaves the second above the folded base. want is what an oracle that
// accumulates the same batches holds, not what the view itself reads. A
// non-nil chain wraps the view's base once the batches are applied; the
// returned set holds the keys the overlay answers, which never reach it.
func mvccView(t *testing.T, hat []float64, tuples int64, folded bool, chain func(storage.Store) storage.Store) (subject, map[int]bool) {
	t.Helper()
	oracle := NewMap()
	var mass float64
	for k, v := range hat {
		oracle.Add(k, v)
		mass += math.Abs(v)
	}
	s, err := mvcc.New(storage.NewSparseStoreFromDense(hat), wavelet.Db4, dims, tuples, mass, mvcc.Config{DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	overlay := make(map[int]bool)
	for i, b := range []*mvcc.Batch{
		mvcc.NewBatch().Add([]int{5, 5, 3}, 1).Add([]int{0, 15, 7}, 2),
		mvcc.NewBatch().Remove([]int{5, 5, 3}).Add([]int{9, 2, 4}, 1),
	} {
		delta, err := b.Delta(wavelet.Db4, dims)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Apply(ctx, b); err != nil {
			t.Fatal(err)
		}
		for k, d := range delta {
			oracle.Add(k, d)
			overlay[k] = true
		}
		if i == 0 && folded {
			if err := s.Compact(ctx); err != nil {
				t.Fatal(err)
			}
			clear(overlay)
		}
	}
	if chain != nil {
		s.SetBaseChain(chain)
	}
	if layers := s.Stats().Layers; folded && layers != 1 || !folded && layers != 2 {
		t.Fatalf("folded=%v: %d layers over the base", folded, layers)
	}
	want := make([]float64, len(hat))
	if err := oracle.Walk(func(k int, v float64) bool {
		want[k] = v
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return subject{store: s.View(), want: want}, overlay
}

// remoteCoordinator serves served from two shard servers on loopback and
// returns a coordinator over their remote clients.
func remoteCoordinator(t *testing.T, served storage.Store, tuples int64) *dist.CoordinatorStore {
	t.Helper()
	shards := make([]storage.Store, 2)
	for i := range shards {
		srv := dist.NewServer(served, codec.ShardMeta{
			Names: []string{"x", "y", "m"}, Sizes: dims, FilterName: "Db4", TupleCount: tuples,
			ShardIndex: i, ShardCount: len(shards), Nonzero: int64(served.NonzeroCount()),
		}, nil)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = srv.Serve(ln) }()
		t.Cleanup(func() { _ = srv.Close() })
		shards[i] = dist.NewRemoteStore(ln.Addr().String(), dist.ClientConfig{})
	}
	coord, err := dist.NewCoordinator(shards, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = coord.Close() })
	return coord
}

// subjects lists every store type; each build returns a fresh store.
var subjects = []struct {
	name  string
	build func(t *testing.T, hat []float64, tuples int64) subject
}{
	{"array", func(t *testing.T, hat []float64, _ int64) subject {
		return subject{store: array(hat), want: hat, bounded: true}
	}},
	// The sparse store, under its old name.
	{"hash", func(t *testing.T, hat []float64, _ int64) subject {
		return subject{store: storage.NewSparseStoreFromDense(hat), want: hat}
	}},
	{"memory store, dense", func(t *testing.T, hat []float64, _ int64) subject {
		return memoryStore(t, hat, true)
	}},
	{"memory store, sparse", func(t *testing.T, hat []float64, _ int64) subject {
		return memoryStore(t, eighth(hat), false)
	}},
	{"cached", func(t *testing.T, hat []float64, _ int64) subject {
		base := NewCounting(array(hat))
		return subject{store: storage.NewCachedStore(base), want: hat, bounded: true, counts: base}
	}},
	{"coalescing", func(t *testing.T, hat []float64, _ int64) subject {
		base := NewCounting(storage.NewSparseStoreFromDense(hat))
		return subject{store: storage.NewCoalescingStore(base), want: hat, counts: base}
	}},
	{"zero-rate fault", func(t *testing.T, hat []float64, _ int64) subject {
		return subject{store: storage.NewFaultStore(array(hat), storage.FaultConfig{}), want: hat, bounded: true}
	}},
	{"idle retry", func(t *testing.T, hat []float64, _ int64) subject {
		return subject{store: storage.NewRetryStore(array(hat), storage.RetryConfig{}), want: hat, bounded: true}
	}},
	{"instrumented", func(t *testing.T, hat []float64, _ int64) subject {
		counts := new(storage.Counters)
		return subject{store: storage.NewInstrumentedStore(array(hat), counts), want: hat, bounded: true, counts: counts}
	}},
	{"layout mmap, dense", func(t *testing.T, hat []float64, _ int64) subject {
		return openLayout(t, hat, "rank")
	}},
	{"layout mmap, sparse", func(t *testing.T, hat []float64, _ int64) subject {
		return openLayout(t, eighth(hat), "directory")
	}},
	{"mvcc view with layers", func(t *testing.T, hat []float64, tuples int64) subject {
		s, _ := mvccView(t, hat, tuples, false, nil)
		return s
	}},
	{"mvcc view over a fold", func(t *testing.T, hat []float64, tuples int64) subject {
		s, _ := mvccView(t, hat, tuples, true, nil)
		return s
	}},
	{"remote 2-shard coordinator", func(t *testing.T, hat []float64, tuples int64) subject {
		coord := remoteCoordinator(t, storage.NewSparseStoreFromDense(hat), tuples)
		return subject{store: coord, want: hat, sharesFate: true}
	}},
}

// TestStoreContract asserts the storage.Store contract, one subtest per
// store type: see the interface's BatchGetCtx documentation.
func TestStoreContract(t *testing.T) {
	hat, tuples := transformed(t)
	plan := testPlan(t)
	ctx := context.Background()
	for _, sub := range subjects {
		t.Run(sub.name, func(t *testing.T) {
			s := sub.build(t, hat, tuples)
			reader, counts := s.counted()
			get := func(keys []int) []float64 {
				t.Helper()
				dst := make([]float64, len(keys))
				if err := reader.BatchGetCtx(ctx, keys, dst); err != nil {
					t.Fatalf("BatchGetCtx(%v): %v", keys, err)
				}
				for i, k := range keys {
					if dst[i] != s.want[k] {
						t.Fatalf("key %d at position %d = %g, want %g", k, i, dst[i], s.want[k])
					}
				}
				return dst
			}

			// Distinct keys not requested before: each costs one retrieval,
			// also through the layers that share repeats (cache, coalescing).
			distinct := make([]int, 0, 64)
			for k := 1; k < len(s.want); k += len(s.want) / 64 {
				distinct = append(distinct, k)
			}
			before := counts.Retrievals()
			get(distinct)
			if got := counts.Retrievals() - before; got != int64(len(distinct)) {
				t.Fatalf("Retrievals rose by %d for %d keys", got, len(distinct))
			}

			// Duplicates, descending runs and far-apart keys in one batch.
			last := len(s.want) - 1
			get([]int{last, 0, 17, 17, 120, 121, 122, 5, 250, 1, last, 60})

			get(nil)
			get([]int{})

			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("len(keys) != len(dst) did not panic")
					}
				}()
				_ = s.store.BatchGetCtx(ctx, []int{1, 2}, make([]float64, 1))
			}()

			cancelled, cancel := context.WithCancel(ctx)
			cancel()
			if err := s.store.BatchGetCtx(cancelled, []int{3, 4}, make([]float64, 2)); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled context: err = %v, want context.Canceled", err)
			}

			// Out-of-range keys fail per key; their neighbours are served.
			keys := []int{5, -1, 9, 700, -1}
			outOfRange := map[int]bool{1: true, 4: true}
			if s.bounded {
				keys = append(keys, len(s.want), 11)
				outOfRange[5] = true
			}
			dst := make([]float64, len(keys))
			err := s.store.BatchGetCtx(ctx, keys, dst)
			var be *storage.BatchError
			if !errors.As(err, &be) {
				t.Fatalf("out-of-range keys: err = %v, want *storage.BatchError", err)
			}
			failed := make(map[int]bool)
			prev := -1
			for _, ke := range be.Failed {
				if ke.Index <= prev {
					t.Fatalf("Failed not in ascending Index order: %+v", be.Failed)
				}
				prev = ke.Index
				if ke.Key != keys[ke.Index] || ke.Err == nil {
					t.Fatalf("KeyError %+v does not describe position %d (key %d)", ke, ke.Index, keys[ke.Index])
				}
				failed[ke.Index] = true
			}
			for i, k := range keys {
				switch {
				case outOfRange[i] && !failed[i]:
					t.Fatalf("out-of-range key %d at position %d was not reported", k, i)
				case !outOfRange[i] && failed[i] && !s.sharesFate:
					t.Fatalf("in-range key %d at position %d was reported failed", k, i)
				case !failed[i] && dst[i] != s.want[k]:
					t.Fatalf("unlisted position %d (key %d) = %g, want %g", i, k, dst[i], s.want[k])
				}
			}

			got, err := plan.Exact(ctx, s.store)
			if err != nil {
				t.Fatal(err)
			}
			want, err := plan.Exact(ctx, array(s.want))
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("Exact query %d = %v through the store, %v through the array store", i, got[i], want[i])
				}
			}

			readConcurrently(t, s, reader, counts, plan, distinct, want)
		})
	}
}

// TestEnumerableStoresWalkAscending: every store that enumerates hands over
// its nonzero coefficients in strictly ascending key order, each once, with
// the value a read gets — the order a compaction's merge and a loader's
// Build rely on.
func TestEnumerableStoresWalkAscending(t *testing.T) {
	hat, tuples := transformed(t)
	walked := 0
	for _, sub := range subjects {
		t.Run(sub.name, func(t *testing.T) {
			s := sub.build(t, hat, tuples)
			enum, ok := s.store.(storage.Enumerable)
			if !ok {
				return
			}
			walked++
			prev, n := -1, 0
			if err := enum.Walk(func(k int, v float64) bool {
				if k <= prev {
					t.Fatalf("key %d walked after key %d", k, prev)
				}
				if v == 0 || v != s.want[k] {
					t.Fatalf("key %d walked as %v, want %v", k, v, s.want[k])
				}
				prev, n = k, n+1
				return true
			}); err != nil {
				t.Fatal(err)
			}
			nonzero := 0
			for _, v := range s.want {
				if v != 0 {
					nonzero++
				}
			}
			if n != nonzero || s.store.NonzeroCount() != nonzero {
				t.Fatalf("walked %d keys, NonzeroCount %d, want %d", n, s.store.NonzeroCount(), nonzero)
			}
		})
	}
	// array, hash, two memory stores, two layouts, two MVCC views.
	if walked != 8 {
		t.Fatalf("%d stores enumerate, want 8", walked)
	}
}

// readConcurrently is the contract every store keeps with concurrent
// readers: eight goroutines run the distinct-key batch and an exact pass
// through reader (the subject's store, or a Counting over it) at once,
// every value is the one a sequential read gets, and counts rises by
// exactly what the goroutines asked for — a batch key each, a distinct
// coefficient each per exact pass — less the keys a coalescing layer
// answered from another goroutine's fetch or a cache from its contents. Run
// it under -race: nothing here takes a lock the store does not take itself.
func readConcurrently(t *testing.T, s subject, reader storage.Store, counts retrievalCount, plan *core.Plan, distinct []int, exact []float64) {
	t.Helper()
	const readers = 8
	shared := func() int64 {
		switch st := s.store.(type) {
		case *storage.CoalescingStore:
			return st.Stats().Coalesced
		case *storage.CachedStore:
			return st.Hits()
		}
		return 0
	}
	ctx := context.Background()
	before, sharedBefore := counts.Retrievals(), shared()
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]float64, len(distinct))
			if err := reader.BatchGetCtx(ctx, distinct, dst); err != nil {
				errs <- err
				return
			}
			for i, k := range distinct {
				if dst[i] != s.want[k] {
					errs <- fmt.Errorf("key %d = %g, want %g", k, dst[i], s.want[k])
					return
				}
			}
			got, err := plan.Exact(ctx, reader)
			if err != nil {
				errs <- err
				return
			}
			for i := range exact {
				if got[i] != exact[i] {
					errs <- fmt.Errorf("Exact query %d = %v, want %v", i, got[i], exact[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent reader: %v", err)
	}
	asked := int64(readers * (len(distinct) + plan.DistinctCoefficients()))
	if got, want := counts.Retrievals()-before, asked-(shared()-sharedBefore); got != want {
		t.Fatalf("%d concurrent readers: Retrievals rose by %d, want %d", readers, got, want)
	}
}
