package storage

import (
	"path/filepath"
	"testing"
)

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

// keysScrambled exercises unsorted input, duplicates, and key gaps larger
// than the FileStore coalescing window.
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

func TestFileStoreGetBatchCoalescing(t *testing.T) {
	// A long consecutive run plus a far-away key: values must still land in
	// request order even though reads are sorted and coalesced.
	cells := make([]float64, 4096)
	for i := range cells {
		cells[i] = float64(i * i)
	}
	path := filepath.Join(t.TempDir(), "cells.wvfs")
	fs, err := CreateFileStore(path, cells)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	var keys []int
	for k := 100; k < 400; k += 2 { // gaps of 2 — coalesces into one span
		keys = append(keys, k)
	}
	keys = append(keys, 4095, 0, 2048)
	dst := make([]float64, len(keys))
	BatchGet(fs, keys, dst)
	for i, k := range keys {
		if dst[i] != cells[k] {
			t.Fatalf("dst[%d] (key %d) = %g, want %g", i, k, dst[i], cells[k])
		}
	}
	if got := fs.Retrievals(); got != int64(len(keys)) {
		t.Fatalf("retrievals = %d, want %d (cost model counts keys, not syscalls)", got, len(keys))
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
