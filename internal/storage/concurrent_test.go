package storage

import (
	"sync"
	"testing"
)

func TestConcurrentStoreParallelGets(t *testing.T) {
	cells := make([]float64, 1024)
	for i := range cells {
		cells[i] = float64(i)
	}
	cs := NewConcurrentStore(NewArrayStore(cells))
	var wg sync.WaitGroup
	const workers = 8
	const reads = 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				k := (w*reads + i) % 1024
				if got := Get(cs, k); got != float64(k) {
					t.Errorf("Get(%d) = %g", k, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if cs.Retrievals() != workers*reads {
		t.Fatalf("Retrievals = %d, want %d", cs.Retrievals(), workers*reads)
	}
	cs.ResetStats()
	if cs.Retrievals() != 0 {
		t.Fatal("ResetStats failed")
	}
	if cs.NonzeroCount() != 1023 { // cell 0 holds value 0
		t.Fatalf("NonzeroCount = %d", cs.NonzeroCount())
	}
}

func TestConcurrentStoreEnumeration(t *testing.T) {
	cs := NewConcurrentStore(NewArrayStore([]float64{0, 2, 0, 4}))
	var keys []int
	cs.ForEachNonzero(func(k int, v float64) bool {
		keys = append(keys, k)
		return true
	})
	if len(keys) != 2 || keys[0] != 1 || keys[1] != 3 {
		t.Fatalf("keys = %v", keys)
	}
	if !cs.Enumerable() {
		t.Fatal("Enumerable = false for enumerable inner store")
	}
	if !IsEnumerable(cs) {
		t.Fatal("IsEnumerable = false for enumerable wrapper")
	}
	bad := NewConcurrentStore(nonEnumStore{})
	if bad.Enumerable() {
		t.Fatal("Enumerable = true for non-enumerable inner store")
	}
	if IsEnumerable(bad) {
		t.Fatal("IsEnumerable = true for non-enumerable wrapper")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ForEachNonzero on a non-enumerable inner store did not panic")
		}
	}()
	bad.ForEachNonzero(func(int, float64) bool { return true })
}

func TestConcurrentStoreNestedCapability(t *testing.T) {
	// Capability checks see through nested wrappers: Concurrent(Cached(bad)).
	inner, err := NewCachedStore(nonEnumStore{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	cs := NewConcurrentStore(inner)
	if cs.Enumerable() || IsEnumerable(cs) {
		t.Fatal("nested non-enumerable store reported as enumerable")
	}
}

func TestConcurrentStoreAdd(t *testing.T) {
	cs := NewConcurrentStore(NewHashStore())
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				cs.Add(7, 1)
			}
		}()
	}
	wg.Wait()
	if got := Get(cs, 7); got != 400 {
		t.Fatalf("Get(7) = %g after concurrent Adds, want 400", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Add on a non-updatable inner store did not panic")
		}
	}()
	NewConcurrentStore(nonEnumStore{}).Add(0, 1)
}
