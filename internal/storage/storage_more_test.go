package storage

import "testing"

func TestArrayStoreForEachNonzeroEarlyStop(t *testing.T) {
	s := NewArrayStore([]float64{1, 0, 2, 3})
	n := 0
	s.ForEachNonzero(func(k int, v float64) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
	// Full walk in ascending key order.
	var keys []int
	s.ForEachNonzero(func(k int, v float64) bool { keys = append(keys, k); return true })
	if len(keys) != 3 || keys[0] != 0 || keys[1] != 2 || keys[2] != 3 {
		t.Fatalf("keys = %v", keys)
	}
}

func TestHashStoreForEachNonzeroEarlyStop(t *testing.T) {
	s := NewHashStore()
	s.Add(1, 1)
	s.Add(2, 2)
	s.Add(3, 3)
	n := 0
	s.ForEachNonzero(func(int, float64) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("early stop visited %d", n)
	}
}
