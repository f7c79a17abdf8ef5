package storage

import "testing"

// batchCells is a small coefficient array with zeros mixed in.
func batchCells() []float64 {
	cells := make([]float64, 300)
	for i := range cells {
		if i%3 != 0 {
			cells[i] = float64(i) * 0.5
		}
	}
	return cells
}

// keysScrambled exercises unsorted input, duplicates, and far-apart keys.
func keysScrambled() []int {
	return []int{299, 0, 17, 17, 120, 121, 122, 5, 250, 1, 299, 60}
}

func TestGetBatchCached(t *testing.T) {
	cells := batchCells()
	inner := NewArrayStore(cells)
	cs, err := NewCachedStore(inner, Unbounded)
	if err != nil {
		t.Fatal(err)
	}
	// Warm two keys through the per-key path.
	Get(cs, 17)
	Get(cs, 250)
	inner.ResetStats()
	cs.hits = 0

	keys := keysScrambled() // 17 and 299 each appear twice
	dst := make([]float64, len(keys))
	BatchGet(cs, keys, dst)
	for i, k := range keys {
		if dst[i] != cells[k] {
			t.Fatalf("dst[%d] (key %d) = %g, want %g", i, k, dst[i], cells[k])
		}
	}
	// 12 keys: 17×2 and 250 are warm (3 hits), 299 repeats within the batch
	// (1 more hit), leaving 8 distinct cold keys.
	if got := inner.Retrievals(); got != 8 {
		t.Errorf("inner retrievals = %d, want 8", got)
	}
	if got := cs.Hits(); got != 4 {
		t.Errorf("hits = %d, want 4", got)
	}
	// Everything is now cached: a second pass is all hits.
	BatchGet(cs, keys, dst)
	if got := inner.Retrievals(); got != 8 {
		t.Errorf("second pass reached inner store: retrievals = %d", got)
	}
}

func TestGetBatchCachedDisabled(t *testing.T) {
	cells := batchCells()
	inner := NewArrayStore(cells)
	cs, err := NewCachedStore(inner, 0)
	if err != nil {
		t.Fatal(err)
	}
	keys := []int{4, 4, 9}
	dst := make([]float64, len(keys))
	BatchGet(cs, keys, dst)
	if got := inner.Retrievals(); got != 3 {
		t.Errorf("capacity-0 cache must forward every key: retrievals = %d", got)
	}
	for i, k := range keys {
		if dst[i] != cells[k] {
			t.Fatalf("dst[%d] = %g, want %g", i, dst[i], cells[k])
		}
	}
}

func TestGetBatchOutOfRangePanics(t *testing.T) {
	s := NewArrayStore(make([]float64, 4))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range key")
		}
	}()
	BatchGet(s, []int{0, 9}, make([]float64, 2))
}

func TestBatchGetLengthMismatchPanics(t *testing.T) {
	s := NewArrayStore(make([]float64, 4))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for keys/dst length mismatch")
		}
	}()
	BatchGet(s, []int{1, 2}, make([]float64, 1))
}
