package storage

import (
	"sync"
	"testing"
)

func TestShardedStoreBasics(t *testing.T) {
	s := NewShardedStore(6) // rounds up
	if got := s.NumShards(); got != 8 {
		t.Fatalf("NumShards = %d, want 8 (rounded to power of two)", got)
	}
	s.Add(3, 1.5)
	s.Add(1000003, -2.0)
	s.Add(3, 0.5)
	if got := Get(s, 3); got != 2.0 {
		t.Fatalf("Get(3) = %g, want 2", got)
	}
	if got := Get(s, 999); got != 0 {
		t.Fatalf("Get(999) = %g, want 0", got)
	}
	if got := s.NonzeroCount(); got != 2 {
		t.Fatalf("NonzeroCount = %d, want 2", got)
	}
	// Cancelling an entry back to zero deletes it, like HashStore.
	s.Add(1000003, 2.0)
	if got := s.NonzeroCount(); got != 1 {
		t.Fatalf("NonzeroCount after cancel = %d, want 1", got)
	}
	if got := s.Retrievals(); got != 2 {
		t.Fatalf("Retrievals = %d, want 2 (Adds are not retrievals)", got)
	}
	s.ResetStats()
	if got := s.Retrievals(); got != 0 {
		t.Fatalf("Retrievals after reset = %d", got)
	}
}

func TestShardedStoreEnumeration(t *testing.T) {
	cells := []float64{0, 1, 0, 3, 0, 5}
	s := NewShardedStoreFromDense(cells, 0, 4)
	seen := map[int]float64{}
	s.ForEachNonzero(func(k int, v float64) bool {
		seen[k] = v
		return true
	})
	if len(seen) != 3 || seen[1] != 1 || seen[3] != 3 || seen[5] != 5 {
		t.Fatalf("enumeration saw %v", seen)
	}
	// Early termination stops after one callback.
	calls := 0
	s.ForEachNonzero(func(int, float64) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Fatalf("early-stop enumeration made %d calls", calls)
	}
	// Enumeration is not a retrieval.
	if got := s.Retrievals(); got != 0 {
		t.Fatalf("Retrievals after enumeration = %d", got)
	}
}

// bareStore implements Store and nothing else, for exercising the
// non-Enumerable paths.
type bareStore struct{ Store }

func TestNewShardedStoreFrom(t *testing.T) {
	src := NewHashStoreFromDense([]float64{0, 2, 0, 4}, 0)
	s, err := NewShardedStoreFrom(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	if Get(s, 1) != 2 || Get(s, 3) != 4 || Get(s, 0) != 0 {
		t.Fatal("copied store returned wrong values")
	}
	if _, err := NewShardedStoreFrom(&bareStore{src}, 4); err == nil {
		t.Fatal("expected error sharding a non-enumerable store")
	}
}

// TestShardedStoreConcurrentAccess hammers one store from readers, batch
// readers and writers at once; run under -race this is the storage-level
// safety check, and the retrieval counter must account for every Get.
func TestShardedStoreConcurrentAccess(t *testing.T) {
	const (
		goroutines = 8
		opsEach    = 500
		keySpace   = 1 << 12
	)
	s := NewShardedStore(16)
	for k := 0; k < keySpace; k += 3 {
		s.Add(k, float64(k+1))
	}
	s.ResetStats()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 3 {
			case 0: // single-key readers
				for i := 0; i < opsEach; i++ {
					Get(s, (g*opsEach+i)%keySpace)
				}
			case 1: // batch readers
				keys := make([]int, 10)
				dst := make([]float64, 10)
				for i := 0; i < opsEach/10; i++ {
					for j := range keys {
						keys[j] = (g + i*10 + j) % keySpace
					}
					BatchGet(s, keys, dst)
				}
			case 2: // writers (net-zero updates so values stay checkable)
				for i := 0; i < opsEach/2; i++ {
					k := (g + i) % keySpace
					s.Add(k, 7)
					s.Add(k, -7)
				}
			}
		}(g)
	}
	wg.Wait()

	// 3 reader goroutines × 500 single Gets + 3 batch goroutines × 50
	// batches × 10 keys (writers do not retrieve). goroutines=8 → g%3 is
	// 0 for g∈{0,3,6}, 1 for g∈{1,4,7}, 2 for g∈{2,5}.
	want := int64(3*opsEach + 3*(opsEach/10)*10)
	if got := s.Retrievals(); got != want {
		t.Fatalf("Retrievals = %d, want %d", got, want)
	}
	// Writers applied net-zero deltas: contents must be untouched.
	for _, k := range []int{0, 3, 4, 1000, 4095} {
		want := 0.0
		if k%3 == 0 {
			want = float64(k + 1)
		}
		if got := Get(s, k); got != want {
			t.Fatalf("Get(%d) = %g after stress, want %g", k, got, want)
		}
	}
}
