package storetest

import (
	"context"
	"errors"
	"testing"

	"repro/internal/storage"
)

// keyFaults fails about a third of the keys, chosen by key alone: no
// failure depends on call order, so the positions a batch loses are known
// before it is asked.
var keyFaults = storage.FaultConfig{ErrorRate: 0.3, Seed: 11}

// faulty wraps base with keyFaults.
func faulty(base storage.Store) storage.Store { return storage.NewFaultStore(base, keyFaults) }

// failureSubject is a store whose reads of want fail for the keys fails
// names.
type failureSubject struct {
	store storage.Store
	want  []float64
	fails func(key int) bool
}

// failureSubjects puts a fault base that fails by key under every layer that
// fetches part of its caller's batch from the store below.
var failureSubjects = []struct {
	name  string
	build func(t *testing.T, hat []float64, tuples int64, fails func(int) bool) failureSubject
}{
	{"retry with one attempt", func(t *testing.T, hat []float64, _ int64, fails func(int) bool) failureSubject {
		s := storage.NewRetryStore(faulty(array(hat)), storage.RetryConfig{MaxAttempts: 1})
		return failureSubject{store: s, want: hat, fails: fails}
	}},
	{"coalescing", func(t *testing.T, hat []float64, _ int64, fails func(int) bool) failureSubject {
		return failureSubject{store: storage.NewCoalescingStore(faulty(array(hat))), want: hat, fails: fails}
	}},
	{"session cache", func(t *testing.T, hat []float64, _ int64, fails func(int) bool) failureSubject {
		return failureSubject{store: storage.NewCachedStore(faulty(array(hat))), want: hat, fails: fails}
	}},
	{"mvcc view with layers", func(t *testing.T, hat []float64, tuples int64, fails func(int) bool) failureSubject {
		s, overlay := mvccView(t, hat, tuples, false, faulty)
		return failureSubject{store: s.store, want: s.want, fails: func(k int) bool { return fails(k) && !overlay[k] }}
	}},
	{"mvcc view over a fold", func(t *testing.T, hat []float64, tuples int64, fails func(int) bool) failureSubject {
		s, overlay := mvccView(t, hat, tuples, true, faulty)
		return failureSubject{store: s.store, want: s.want, fails: func(k int) bool { return fails(k) && !overlay[k] }}
	}},
	{"remote 2-shard coordinator", func(t *testing.T, hat []float64, tuples int64, fails func(int) bool) failureSubject {
		coord := remoteCoordinator(t, faulty(storage.NewSparseStoreFromDense(hat)), tuples)
		return failureSubject{store: coord, want: hat, fails: fails}
	}},
}

// TestStoreFailureContract asserts the failure half of the storage.Store
// contract through every layer that asks the store below for part of its
// caller's batch: the failed positions are listed once each in ascending
// Index order, each names its own key, exactly the positions whose keys the
// base fails are listed, and every other position holds its value. Each
// batch is read twice, so the second read meets warm caches.
func TestStoreFailureContract(t *testing.T) {
	hat, tuples := transformed(t)
	ctx := context.Background()
	probe := faulty(array(hat))
	fails := func(k int) bool {
		_, err := storage.GetCtx(ctx, probe, k)
		return errors.Is(err, storage.ErrInjected)
	}

	// Duplicates (of failing keys too), descending runs, and keys either
	// side of every shard boundary.
	var keys []int
	for k := 700; k > 600; k-- {
		keys = append(keys, k)
	}
	keys = append(keys, len(hat)-1, 0, 17, 17, 120, 121, 122, 5, 250, 1, len(hat)-1, 60)
	for k := 0; k < len(hat); k += 37 {
		keys = append(keys, k, len(hat)-1-k)
	}
	keys = append(keys, keys[:40]...)
	predicted := 0
	for _, k := range keys {
		if fails(k) {
			predicted++
		}
	}
	if predicted == 0 || predicted == len(keys) {
		t.Fatalf("%d of %d positions fail: the batch must mix failures and values", predicted, len(keys))
	}

	for _, row := range failureSubjects {
		t.Run(row.name, func(t *testing.T) {
			s := row.build(t, hat, tuples, fails)
			for read := 1; read <= 2; read++ {
				dst := make([]float64, len(keys))
				err := s.store.BatchGetCtx(ctx, keys, dst)
				var be *storage.BatchError
				if !errors.As(err, &be) {
					t.Fatalf("read %d: err = %v, want *storage.BatchError", read, err)
				}
				failed := be.Failed
				for i, k := range keys {
					listed := len(failed) > 0 && failed[0].Index == i
					if listed {
						if ke := failed[0]; ke.Key != k || ke.Err == nil {
							t.Fatalf("read %d: KeyError %+v does not describe position %d (key %d)", read, ke, i, k)
						}
						failed = failed[1:]
					}
					switch {
					case s.fails(k) && !listed:
						t.Fatalf("read %d: position %d (key %d) fails in the base but is not listed", read, i, k)
					case !s.fails(k) && listed:
						t.Fatalf("read %d: position %d (key %d) is listed but its key does not fail", read, i, k)
					case !listed && dst[i] != s.want[k]:
						t.Fatalf("read %d: unlisted position %d (key %d) = %g, want %g", read, i, k, dst[i], s.want[k])
					}
				}
				if len(failed) > 0 {
					t.Fatalf("read %d: %d KeyErrors out of ascending order or out of range, first %+v", read, len(failed), failed[0])
				}
			}
		})
	}
}
