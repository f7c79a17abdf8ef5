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

func TestArrayStoreAdd(t *testing.T) {
	s := NewArrayStore(make([]float64, 4))
	s.Add(2, 5)
	s.Add(2, -2)
	if got := Get(s, 2); got != 3 {
		t.Fatalf("after Add: %g", got)
	}
	// Add must not count as a retrieval.
	if s.Retrievals() != 1 {
		t.Fatalf("Retrievals = %d", s.Retrievals())
	}
}

func TestArrayStorePanicsOutOfRange(t *testing.T) {
	s := NewArrayStore(make([]float64, 2))
	for _, fn := range []func(){
		func() { Get(s, -1) },
		func() { Get(s, 2) },
		func() { s.Add(5, 1) },
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

func TestHashStore(t *testing.T) {
	s := NewHashStoreFromDense([]float64{0, 2, 0, -1e-12, 4}, 1e-9)
	if s.NonzeroCount() != 2 {
		t.Fatalf("NonzeroCount = %d", s.NonzeroCount())
	}
	if v := Get(s, 1); v != 2 {
		t.Fatalf("Get(1) = %g", v)
	}
	if v := Get(s, 3); v != 0 {
		t.Fatalf("Get(3) = %g (pruned entry should read as zero)", v)
	}
	if s.Retrievals() != 2 {
		t.Fatalf("Retrievals = %d", s.Retrievals())
	}
}

func TestHashStoreAddDeletesZero(t *testing.T) {
	s := NewHashStore()
	s.Add(7, 3)
	s.Add(7, -3)
	if s.NonzeroCount() != 0 {
		t.Fatal("cancelled entry should be deleted")
	}
	s.Add(7, 1.5)
	if Get(s, 7) != 1.5 {
		t.Fatal("Add failed")
	}
}

func BenchmarkArrayStoreGet(b *testing.B) {
	s := NewArrayStore(make([]float64, 1<<16))
	for i := 0; i < b.N; i++ {
		Get(s, i&0xffff)
	}
}

func BenchmarkHashStoreGet(b *testing.B) {
	cells := make([]float64, 1<<16)
	for i := range cells {
		cells[i] = float64(i % 7)
	}
	s := NewHashStoreFromDense(cells, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Get(s, i&0xffff)
	}
}
