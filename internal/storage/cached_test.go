package storage

import "testing"

func TestCachedStoreHitsAndMisses(t *testing.T) {
	inner := NewArrayStore([]float64{10, 20, 30, 40})
	s := NewCachedStore(inner)
	if v := Get(s, 1); v != 20 {
		t.Fatalf("Get = %g", v)
	}
	if v := Get(s, 1); v != 20 {
		t.Fatalf("Get = %g", v)
	}
	if s.Misses() != 1 {
		t.Fatalf("Misses = %d, want 1 (second Get was a hit)", s.Misses())
	}
	if s.Hits() != 1 {
		t.Fatalf("Hits = %d", s.Hits())
	}
	if s.Cached() != 1 {
		t.Fatalf("Cached = %d", s.Cached())
	}
}

// TestCachedStoreValidationAndReset: ClearCache drops the contents and
// keeps the counters, which only grow.
func TestCachedStoreValidationAndReset(t *testing.T) {
	inner := NewArrayStore([]float64{7})
	s := NewCachedStore(inner)
	Get(s, 0)
	Get(s, 0)
	if s.Misses() != 1 || s.Hits() != 1 {
		t.Fatalf("misses %d, hits %d; want 1 and 1", s.Misses(), s.Hits())
	}
	s.ClearCache()
	if s.Cached() != 0 || s.Misses() != 1 || s.Hits() != 1 {
		t.Fatalf("after ClearCache: cached %d, misses %d, hits %d; want 0, 1, 1", s.Cached(), s.Misses(), s.Hits())
	}
	Get(s, 0)
	if s.Misses() != 2 {
		t.Fatal("ClearCache should force a miss")
	}
}
