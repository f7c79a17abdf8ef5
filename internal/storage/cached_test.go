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

func TestCachedStoreValidationAndReset(t *testing.T) {
	inner := NewArrayStore([]float64{7})
	s := NewCachedStore(inner)
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
