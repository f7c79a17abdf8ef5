package storage

import "testing"

func TestCachedStoreHitsAndMisses(t *testing.T) {
	inner := NewArrayStore([]float64{10, 20, 30, 40})
	s, err := NewCachedStore(inner, Unbounded)
	if err != nil {
		t.Fatal(err)
	}
	if v := Get(s, 1); v != 20 {
		t.Fatalf("Get = %g", v)
	}
	if v := Get(s, 1); v != 20 {
		t.Fatalf("Get = %g", v)
	}
	if s.Retrievals() != 1 {
		t.Fatalf("Retrievals = %d, want 1 (second Get was a hit)", s.Retrievals())
	}
	if s.Hits() != 1 {
		t.Fatalf("Hits = %d", s.Hits())
	}
	if s.Cached() != 1 {
		t.Fatalf("Cached = %d", s.Cached())
	}
}

func TestCachedStoreEviction(t *testing.T) {
	inner := NewArrayStore([]float64{1, 2, 3})
	s, err := NewCachedStore(inner, 2)
	if err != nil {
		t.Fatal(err)
	}
	Get(s, 0)
	Get(s, 1)
	Get(s, 2) // evicts 0
	if s.Cached() != 2 {
		t.Fatalf("Cached = %d", s.Cached())
	}
	Get(s, 0) // miss again
	if s.Retrievals() != 4 {
		t.Fatalf("Retrievals = %d, want 4", s.Retrievals())
	}
	// 1 was evicted by the re-fetch of 0 (LRU back), 2 still cached.
	Get(s, 2)
	if s.Hits() != 1 {
		t.Fatalf("Hits = %d, want 1", s.Hits())
	}
}

func TestCachedStoreZeroCapacity(t *testing.T) {
	inner := NewArrayStore([]float64{5})
	s, err := NewCachedStore(inner, 0)
	if err != nil {
		t.Fatal(err)
	}
	Get(s, 0)
	Get(s, 0)
	if s.Retrievals() != 2 || s.Hits() != 0 {
		t.Fatalf("retrievals=%d hits=%d", s.Retrievals(), s.Hits())
	}
}

func TestCachedStoreValidationAndReset(t *testing.T) {
	if _, err := NewCachedStore(NewHashStore(), -1); err == nil {
		t.Error("negative capacity should fail")
	}
	inner := NewArrayStore([]float64{7})
	s, err := NewCachedStore(inner, 4)
	if err != nil {
		t.Fatal(err)
	}
	Get(s, 0)
	s.ResetStats()
	if s.Retrievals() != 0 || s.Hits() != 0 {
		t.Fatal("ResetStats failed")
	}
	// Cache content survives ResetStats.
	Get(s, 0)
	if s.Hits() != 1 {
		t.Fatal("cache should survive ResetStats")
	}
	s.ClearCache()
	Get(s, 0)
	if s.Retrievals() != 1 {
		t.Fatal("ClearCache should force a miss")
	}
}
