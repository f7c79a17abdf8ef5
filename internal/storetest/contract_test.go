// Package storetest holds the one storage.Store contract matrix: every store
// type in the repository, local and remote, run against the same assertions.
// It is its own package because no store package can import all the others
// without a cycle.
package storetest

import (
	"context"
	"errors"
	"fmt"
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
func openLayout(t *testing.T, want []float64, opts layout.Options, dense bool) subject {
	t.Helper()
	var keys []int
	var values []float64
	for k, v := range want {
		if v != 0 {
			keys, values = append(keys, k), append(values, v)
		}
	}
	path := filepath.Join(t.TempDir(), "m.wvls")
	// Small blocks (and a small hot region in the sparse shape), so batches
	// cross tier units.
	wopts := layout.WriteOptions{Cells: len(want), HotCount: 64, BlockSize: 32}
	if _, err := layout.Write(path, keys, values, wopts); err != nil {
		t.Fatal(err)
	}
	s, err := layout.Open(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	if s.Dense() != dense {
		t.Fatalf("%d coefficients of %d cells written dense=%v, want %v", len(keys), len(want), s.Dense(), dense)
	}
	return subject{store: s, want: want, bounded: true}
}

// quarter keeps every fourth entry of the transform: under the 7/16 where
// the array wins in memory, and under the crossover where a layout's dense
// shape does.
func quarter(hat []float64) []float64 {
	want := make([]float64, len(hat))
	for k := 0; k < len(hat); k += 4 {
		want[k] = hat[k]
	}
	return want
}

// memoryStore fills what storage.NewMemoryStore returns for the nonzero
// entries of want, the way a loader does: ascending keys, count declared up
// front.
func memoryStore(t *testing.T, want []float64, wantArray bool) subject {
	t.Helper()
	count := 0
	for _, v := range want {
		if v != 0 {
			count++
		}
	}
	s := storage.NewMemoryStore(len(want), count, 1)
	if _, isArray := s.(*storage.ArrayStore); isArray != wantArray {
		t.Fatalf("%d coefficients of %d cells are held as %T", count, len(want), s)
	}
	for k, v := range want {
		if v != 0 {
			s.Add(k, v)
		}
	}
	return subject{store: s, want: want, bounded: wantArray}
}

// subjects lists every store type; each build returns a fresh store.
var subjects = []struct {
	name  string
	build func(t *testing.T, hat []float64, tuples int64) subject
}{
	{"array", func(t *testing.T, hat []float64, _ int64) subject {
		return subject{store: array(hat), want: hat, bounded: true}
	}},
	{"hash", func(t *testing.T, hat []float64, _ int64) subject {
		return subject{store: storage.NewHashStoreFromDense(hat, 0), want: hat}
	}},
	{"memory store, dense", func(t *testing.T, hat []float64, _ int64) subject {
		return memoryStore(t, hat, true)
	}},
	{"memory store, sparse", func(t *testing.T, hat []float64, _ int64) subject {
		return memoryStore(t, quarter(hat), false)
	}},
	{"cached", func(t *testing.T, hat []float64, _ int64) subject {
		s, err := storage.NewCachedStore(array(hat), storage.Unbounded)
		if err != nil {
			t.Fatal(err)
		}
		return subject{store: s, want: hat, bounded: true}
	}},
	{"coalescing", func(t *testing.T, hat []float64, _ int64) subject {
		return subject{store: storage.NewCoalescingStore(storage.NewHashStoreFromDense(hat, 0)), want: hat}
	}},
	{"zero-rate fault", func(t *testing.T, hat []float64, _ int64) subject {
		return subject{store: storage.NewFaultStore(array(hat), storage.FaultConfig{}), want: hat, bounded: true}
	}},
	{"idle retry", func(t *testing.T, hat []float64, _ int64) subject {
		return subject{store: storage.NewRetryStore(array(hat), storage.RetryConfig{}), want: hat, bounded: true}
	}},
	{"instrumented", func(t *testing.T, hat []float64, _ int64) subject {
		return subject{store: storage.NewInstrumentedStore(array(hat)), want: hat, bounded: true}
	}},
	{"layout mmap, dense", func(t *testing.T, hat []float64, _ int64) subject {
		return openLayout(t, hat, layout.Options{}, true)
	}},
	{"layout pread, dense", func(t *testing.T, hat []float64, _ int64) subject {
		return openLayout(t, hat, layout.Options{DisableMmap: true}, true)
	}},
	{"layout mmap, sparse", func(t *testing.T, hat []float64, _ int64) subject {
		return openLayout(t, quarter(hat), layout.Options{}, false)
	}},
	{"layout pread, sparse", func(t *testing.T, hat []float64, _ int64) subject {
		return openLayout(t, quarter(hat), layout.Options{DisableMmap: true}, false)
	}},
	{"mvcc view with layers", func(t *testing.T, hat []float64, tuples int64) subject {
		cfg := mvcc.Config{DisableAutoCompact: true}
		s, err := mvcc.New(storage.NewHashStoreFromDense(hat, 0), wavelet.Db4, dims, tuples, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, coords := range [][]int{{5, 5, 3}, {0, 15, 7}} {
			if _, err := s.Apply(context.Background(), mvcc.NewBatch().Add(coords, 1)); err != nil {
				t.Fatal(err)
			}
		}
		if s.Stats().Layers != 2 {
			t.Fatalf("want 2 layers over the base, have %d", s.Stats().Layers)
		}
		view := s.View()
		want := make([]float64, len(hat))
		view.(storage.Enumerable).ForEachNonzero(func(k int, v float64) bool {
			want[k] = v
			return true
		})
		return subject{store: view, want: want}
	}},
	{"remote 2-shard coordinator", func(t *testing.T, hat []float64, tuples int64) subject {
		full := storage.NewHashStoreFromDense(hat, 0)
		shards := make([]storage.Store, 2)
		for i := range shards {
			part, nonzero, mass, err := dist.Partition(full, i, len(shards))
			if err != nil {
				t.Fatal(err)
			}
			srv := dist.NewServer(part, codec.ShardMeta{
				Names: []string{"x", "y", "m"}, Sizes: dims, FilterName: "Db4", TupleCount: tuples,
				ShardIndex: i, ShardCount: len(shards), Nonzero: nonzero, Mass: mass,
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
			get := func(keys []int) []float64 {
				t.Helper()
				dst := make([]float64, len(keys))
				if err := s.store.BatchGetCtx(ctx, keys, dst); err != nil {
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
			before := s.store.Retrievals()
			get(distinct)
			if got := s.store.Retrievals() - before; got != int64(len(distinct)) {
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

			got, err := plan.ExactCtx(ctx, s.store)
			if err != nil {
				t.Fatal(err)
			}
			want := plan.Exact(array(s.want))
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("Exact query %d = %v through the store, %v through the array store", i, got[i], want[i])
				}
			}

			if storage.IsConcurrent(s.store) {
				readConcurrently(t, s, plan, distinct, want)
			}
		})
	}
}

// readConcurrently is the contract of a store that says it takes concurrent
// readers: eight goroutines run the distinct-key batch and an exact pass
// through it at once, every value is the one a sequential read gets, and
// Retrievals rises by exactly what the goroutines asked for — a batch key
// each, a distinct coefficient each per exact pass — less the keys a
// coalescing layer answered from another goroutine's fetch. Run it under
// -race: nothing here takes a lock the store does not take itself.
func readConcurrently(t *testing.T, s subject, plan *core.Plan, distinct []int, exact []float64) {
	t.Helper()
	const readers = 8
	shared := func() int64 {
		if co, ok := s.store.(*storage.CoalescingStore); ok {
			return co.Stats().Coalesced
		}
		return 0
	}
	ctx := context.Background()
	before, sharedBefore := s.store.Retrievals(), shared()
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]float64, len(distinct))
			if err := s.store.BatchGetCtx(ctx, distinct, dst); err != nil {
				errs <- err
				return
			}
			for i, k := range distinct {
				if dst[i] != s.want[k] {
					errs <- fmt.Errorf("key %d = %g, want %g", k, dst[i], s.want[k])
					return
				}
			}
			got, err := plan.ExactCtx(ctx, s.store)
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
	if got, want := s.store.Retrievals()-before, asked-(shared()-sharedBefore); got != want {
		t.Fatalf("%d concurrent readers: Retrievals rose by %d, want %d", readers, got, want)
	}
}
