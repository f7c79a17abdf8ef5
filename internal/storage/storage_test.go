package storage

import (
	"testing"
)

// counted serves s through the instrument layer, the one place a stack
// counts its retrievals, with counters of its own.
func counted(s Store) (*InstrumentedStore, *Counters) {
	counts := new(Counters)
	return NewInstrumentedStore(s, counts), counts
}

func TestArrayStoreGetAndCount(t *testing.T) {
	a := NewArrayStore([]float64{1, 0, 3})
	s, counts := counted(a)
	if v := Get(s, 0); v != 1 {
		t.Fatalf("Get(0) = %g", v)
	}
	if v := Get(s, 1); v != 0 {
		t.Fatalf("Get(1) = %g", v)
	}
	if counts.Retrievals() != 2 {
		t.Fatalf("Retrievals = %d", counts.Retrievals())
	}
	if s.NonzeroCount() != 2 {
		t.Fatalf("NonzeroCount = %d", s.NonzeroCount())
	}
	if a.Size() != 3 {
		t.Fatalf("Size = %d", a.Size())
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
// nonzero cells of a dense array, reads an absent key as zero, and an absent
// key costs a retrieval like a stored one.
func TestHashStore(t *testing.T) {
	var h *HashStore = NewSparseStoreFromDense([]float64{0, 2, 0, -1e-12, 4, -0.0})
	s, counts := counted(h)
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
	if counts.Retrievals() != 3 {
		t.Fatalf("Retrievals = %d", counts.Retrievals())
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
