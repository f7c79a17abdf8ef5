package storage

import (
	"testing"
)

func TestArrayStoreGetAndCount(t *testing.T) {
	s := NewArrayStore([]float64{1, 0, 3})
	if v := Get(s, 0); v != 1 {
		t.Fatalf("Get(0) = %g", v)
	}
	if v := Get(s, 1); v != 0 {
		t.Fatalf("Get(1) = %g", v)
	}
	if s.Retrievals() != 2 {
		t.Fatalf("Retrievals = %d", s.Retrievals())
	}
	s.ResetStats()
	if s.Retrievals() != 0 {
		t.Fatal("ResetStats failed")
	}
	if s.NonzeroCount() != 2 {
		t.Fatalf("NonzeroCount = %d", s.NonzeroCount())
	}
	if s.Size() != 3 {
		t.Fatalf("Size = %d", s.Size())
	}
}

func TestArrayStorePanicsOutOfRange(t *testing.T) {
	s := NewArrayStore(make([]float64, 2))
	for _, fn := range []func(){
		func() { Get(s, -1) },
		func() { Get(s, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestHashStore: the sparse store (HashStore is its old name) keeps the
// nonzero cells of a dense array, reads an absent key as zero and counts
// every read.
func TestHashStore(t *testing.T) {
	var s *HashStore = NewSparseStoreFromDense([]float64{0, 2, 0, -1e-12, 4, -0.0})
	if s.NonzeroCount() != 3 {
		t.Fatalf("NonzeroCount = %d", s.NonzeroCount())
	}
	if v := Get(s, 1); v != 2 {
		t.Fatalf("Get(1) = %g", v)
	}
	if v := Get(s, 2); v != 0 {
		t.Fatalf("Get(2) = %g (an absent key reads as zero)", v)
	}
	if v := Get(s, 3); v != -1e-12 {
		t.Fatalf("Get(3) = %g", v)
	}
	if s.Retrievals() != 3 {
		t.Fatalf("Retrievals = %d", s.Retrievals())
	}
}

func BenchmarkArrayStoreGet(b *testing.B) {
	s := NewArrayStore(make([]float64, 1<<16))
	for i := 0; i < b.N; i++ {
		Get(s, i&0xffff)
	}
}

func BenchmarkSparseStoreGet(b *testing.B) {
	cells := make([]float64, 1<<16)
	for i := range cells {
		cells[i] = float64(i % 7)
	}
	s := NewSparseStoreFromDense(cells)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Get(s, i&0xffff)
	}
}
