package storage

import (
	"context"
	"testing"
)

func isArray(s Store) bool { _, ok := s.(*ArrayStore); return ok }

// TestNewMemoryStoreRule pins the array-or-table decision on both sides of
// its boundary and at its edges.
func TestNewMemoryStoreRule(t *testing.T) {
	for _, c := range []struct {
		name         string
		cells, count int
		array        bool
	}{
		{"7/32 of a power-of-two domain: table", 1 << 10, 7 << 5, false},
		{"one more ties: array", 1 << 10, 7<<5 + 1, true},
		{"the old 7/16 tie: array", 1 << 10, 7 << 6, true},
		{"7/32 of the benchmark's domain", 1 << 23, 7 << 18, false},
		{"one more there", 1 << 23, 7<<18 + 1, true},
		{"the old 7/16 tie there", 1 << 23, 7 << 19, true},
		{"empty", 1 << 10, 0, false},
		{"empty, tiny domain: the 8-slot floor of a table is still the larger", 8, 0, true},
		{"every cell nonzero", 1 << 10, 1 << 10, true},
		{"a 2^40-cell domain with a small count is never dense", 1 << 40, 100_000, false},
		{"unknown domain", 0, 1 << 10, false},
		{"not a power of two, above", 1000, 449, true},
		{"not a power of two, below", 3000, 449, false},
	} {
		if got := isArray(NewMemoryStore(c.cells, c.count)); got != c.array {
			t.Errorf("%s: NewMemoryStore(%d, %d) array = %v, want %v", c.name, c.cells, c.count, got, c.array)
		}
	}
}

// TestNewMemoryStoreNeverAllocatesMoreThanTheTable: whatever sizes a header
// declares, the array branch is taken only when it is not the larger
// allocation, so lying about them buys nothing the table did not already
// cost.
func TestNewMemoryStoreNeverAllocatesMoreThanTheTable(t *testing.T) {
	for cellBits := 0; cellBits <= 16; cellBits++ {
		cells := 1 << cellBits
		// Every count near a power of two or near the 7/8, 7/16 and 7/32
		// marks of one, clipped to the domain as the decoder clips it.
		for bits := 0; bits <= cellBits; bits++ {
			for _, base := range []int{1 << bits, 7 << bits >> 3, 7 << bits >> 4, 7 << bits >> 5} {
				for count := max(base-2, 0); count <= min(base+2, cells); count++ {
					s := NewMemoryStore(cells, count)
					table := NewHashStoreSized(count)
					if a, ok := s.(*ArrayStore); ok && len(a.cells)*8 > len(table.cells.slots)*16 {
						t.Fatalf("cells %d count %d: a %d-byte array over a %d-byte table",
							cells, count, len(a.cells)*8, len(table.cells.slots)*16)
					}
					if h, ok := s.(*HashStore); ok && len(h.cells.slots) != len(table.cells.slots) {
						t.Fatalf("cells %d count %d: table reserved %d slots, want %d",
							cells, count, len(h.cells.slots), len(table.cells.slots))
					}
				}
			}
		}
	}
}

// TestArrayStoreCountsAsWritten: NonzeroCount is a field, kept through every
// zero crossing, not a scan.
func TestArrayStoreCountsAsWritten(t *testing.T) {
	s := NewArrayStore([]float64{0, 1.5, 0, -2, 0})
	if s.NonzeroCount() != 2 {
		t.Fatalf("wrapped array: count %d, want 2", s.NonzeroCount())
	}
	steps := []struct {
		key   int
		delta float64
		want  int
	}{
		{0, 3, 3},    // zero → nonzero
		{0, 1, 3},    // nonzero → nonzero
		{1, -1.5, 2}, // nonzero → zero
		{1, 0, 2},    // zero stays zero
		{3, 2, 1},    // -2 + 2
		{4, -7, 2},
	}
	for _, st := range steps {
		s.Add(st.key, st.delta)
		scan := 0
		s.Walk(func(int, float64) bool { scan++; return true })
		if s.NonzeroCount() != st.want || scan != st.want {
			t.Fatalf("after Add(%d, %v): count %d, scan %d, want %d", st.key, st.delta, s.NonzeroCount(), scan, st.want)
		}
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
