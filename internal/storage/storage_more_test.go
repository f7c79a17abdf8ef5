package storage

import "testing"

func TestArrayStoreForEachNonzeroEarlyStop(t *testing.T) {
	s := NewArrayStore([]float64{1, 0, 2, 3})
	n := 0
	if err := s.Walk(func(k int, v float64) bool { n++; return false }); err != nil || n != 1 {
		t.Fatalf("early stop visited %d, err %v", n, err)
	}
	// Full walk in ascending key order.
	var keys []int
	if err := s.Walk(func(k int, v float64) bool { keys = append(keys, k); return true }); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 3 || keys[0] != 0 || keys[1] != 2 || keys[2] != 3 {
		t.Fatalf("keys = %v", keys)
	}
}

func TestHashStoreForEachNonzeroEarlyStop(t *testing.T) {
	s := NewSparseStoreFromDense([]float64{0, 1, 2, 3})
	n := 0
	if err := s.Walk(func(int, float64) bool { n++; return n < 2 }); err != nil || n != 2 {
		t.Fatalf("early stop visited %d, err %v", n, err)
	}
}
