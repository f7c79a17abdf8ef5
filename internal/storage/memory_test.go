package storage

import (
	"context"
	"math"
	"testing"
)

func isArray(s Store) bool { _, ok := s.(*ArrayStore); return ok }

// TestNewMemoryStoreRule pins the array-or-sparse decision of Build and
// NewMemoryStoreFromDense at 4·count ≥ cells, on both sides of its boundary
// and at its edges, and the two benchmark fixtures' densities on the array
// side: a loaded file and a compaction both build through Build with the
// view's cells and nonzero count, so each fixture keeps its base kind
// whichever way it was built.
func TestNewMemoryStoreRule(t *testing.T) {
	for _, c := range []struct {
		name         string
		cells, count int
		array        bool
	}{
		{"a quarter of a power-of-two domain: array", 1 << 10, 1 << 8, true},
		{"one fewer: sparse", 1 << 10, 1<<8 - 1, false},
		{"a quarter of the benchmark's domain", 1 << 23, 1 << 21, true},
		{"one fewer there", 1 << 23, 1<<21 - 1, false},
		{"not a multiple of four, above", 1001, 251, true},
		{"not a multiple of four, below", 1001, 250, false},
		{"temp5d, 74.9 % of 2^23", 1 << 23, 6_283_190, true},
		{"grid2d, 36.8 % of 2^20", 1 << 20, 385_671, true},
		{"empty", 1 << 10, 0, false},
		{"empty, one cell", 1, 0, false},
		{"one key of one cell", 1, 1, true},
		{"every cell nonzero", 1 << 10, 1 << 10, true},
		{"a 2^40-cell domain with a small count is never dense", 1 << 40, 100_000, false},
		{"the largest domain, a quarter full", math.MaxInt, math.MaxInt/4 + 1, true},
		{"the largest domain, one fewer", math.MaxInt, math.MaxInt / 4, false},
		{"unknown domain", 0, 1 << 10, false},
	} {
		if got := atLeastQuarterFull(c.cells, c.count); got != c.array {
			t.Errorf("%s: rule(%d cells, %d keys) array = %v, want %v", c.name, c.cells, c.count, got, c.array)
		}
		if c.cells > 1<<20 || c.cells <= 0 {
			continue // the rule alone: no domain to allocate
		}
		s, err := Build(c.cells, c.count, func(fn func(int, float64) bool) error {
			for k := 0; k < c.count; k++ {
				if !fn(k, 1) {
					break
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := isArray(s); got != c.array || s.NonzeroCount() != c.count {
			t.Errorf("%s: Build(%d, %d) built %s of %d keys", c.name, c.cells, c.count, Describe(s), s.NonzeroCount())
		}
		if c.cells <= 1<<10 {
			dense := make([]float64, c.cells)
			for k := 0; k < c.count; k++ {
				dense[k] = 1
			}
			if got := isArray(NewMemoryStoreFromDense(dense)); got != c.array {
				t.Errorf("%s: NewMemoryStoreFromDense array = %v, want %v", c.name, got, c.array)
			}
		}
	}
}

// TestArrayStoreCountsAsWritten: NonzeroCount is a field, taken as the store
// is built and the same as a scan: a wrapped array counts its nonzero cells
// once, and Build counts what it stores, not the zeros it is handed.
func TestArrayStoreCountsAsWritten(t *testing.T) {
	s := NewArrayStore([]float64{0, 1.5, 0, -2, 0})
	if s.NonzeroCount() != 2 {
		t.Fatalf("wrapped array: count %d, want 2", s.NonzeroCount())
	}
	keys := []int{0, 1, 3, 4, 6, 7}
	vals := []float64{3, 0, -1, 0, 2, -0.0}
	b, err := Build(8, 4, walkOf(keys, vals))
	if err != nil {
		t.Fatal(err)
	}
	scan := 0
	b.Walk(func(int, float64) bool { scan++; return true })
	if !isArray(b) || b.NonzeroCount() != 3 || scan != 3 {
		t.Fatalf("built %s: count %d, scan %d, want an array of 3", Describe(b), b.NonzeroCount(), scan)
	}
}

// TestCoalescingAllocationsDoNotGrowWithTheBatch: a lead batch registers one
// flight, so a call allocates the same number of objects at 64 keys as at
// 4 096.
func TestCoalescingAllocationsDoNotGrowWithTheBatch(t *testing.T) {
	cs := NewCoalescingStore(NewArrayStore(make([]float64, 1<<13)))
	ctx := context.Background()
	allocs := func(n int) float64 {
		keys := make([]int, n)
		for i := range keys {
			keys[i] = (i * 7) % (1 << 13)
		}
		dst := make([]float64, n)
		return testing.AllocsPerRun(20, func() {
			if err := cs.BatchGetCtx(ctx, keys, dst); err != nil {
				t.Fatal(err)
			}
		})
	}
	// The in-flight map grows to its working size over the first calls and
	// is reused from then on (entries are deleted, the buckets stay).
	for i := 0; i < 5; i++ {
		allocs(4096)
	}
	// One flight, its channel, and three slices sized from the batch.
	small, large := allocs(64), allocs(4096)
	if small != large || large > 5 {
		t.Fatalf("BatchGetCtx allocates %v objects at 64 keys and %v at 4096; want equal and at most 5", small, large)
	}
}
