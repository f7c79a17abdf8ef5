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
		{"7/16 of a power-of-two domain ties: table", 1 << 10, 7 << 6, false},
		{"one more: array", 1 << 10, 7<<6 + 1, true},
		{"7/16 of the benchmark's domain ties", 1 << 23, 7 << 19, false},
		{"one more there", 1 << 23, 7<<19 + 1, true},
		{"empty", 1 << 10, 0, false},
		{"empty, tiny domain: the 8-slot floor of a table is still the larger", 8, 0, true},
		{"every cell nonzero", 1 << 10, 1 << 10, true},
		{"a 2^40-cell domain with a small count is never dense", 1 << 40, 100_000, false},
		{"unknown domain", 0, 1 << 10, false},
		{"not a power of two, above", 1000, 449, true},
		{"not a power of two, below", 3000, 449, false},
	} {
		if got := isArray(NewMemoryStore(c.cells, c.count, 1)); got != c.array {
			t.Errorf("%s: NewMemoryStore(%d, %d) array = %v, want %v", c.name, c.cells, c.count, got, c.array)
		}
	}
}

// TestNewMemoryStoreNeverAllocatesMoreThanTheTable: whatever sizes a header
// declares, the array branch is taken only when it is strictly the smaller
// allocation, so lying about them buys nothing the table did not already
// cost.
func TestNewMemoryStoreNeverAllocatesMoreThanTheTable(t *testing.T) {
	for cellBits := 0; cellBits <= 16; cellBits++ {
		cells := 1 << cellBits
		// Every count near a power of two or near the 7/8 and 7/16 marks of
		// one, clipped to the domain as the decoder clips it.
		for bits := 0; bits <= cellBits; bits++ {
			for _, base := range []int{1 << bits, 7 << bits >> 3, 7 << bits >> 4} {
				for count := max(base-2, 0); count <= min(base+2, cells); count++ {
					s := NewMemoryStore(cells, count, 1)
					table := NewHashStoreSized(count)
					if a, ok := s.(*ArrayStore); ok && len(a.cells)*8 >= len(table.cells.slots)*16 {
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

// TestNewMemoryStorePartition: a partition's table indexes below the bits
// ShardOf spent, and either outcome holds and serves what it is given.
func TestNewMemoryStorePartition(t *testing.T) {
	const cells, parts = 1 << 12, 4
	for _, count := range []int{cells / parts, cells / 16} { // 1024 of 4096 cells, and 256: table both times
		s := NewMemoryStore(cells, count, parts)
		h, ok := s.(*HashStore)
		if !ok || h.cells.skip != 2 {
			t.Fatalf("count %d: got %T (skip %v), want a table skipping 2 hash bits", count, s, ok && h.cells.skip == 2)
		}
	}
	dense := NewMemoryStore(cells, cells/2, 2) // half the cells: over 7/16
	if !isArray(dense) {
		t.Fatalf("a partition holding half its domain is held as %T", dense)
	}
	for _, s := range []MemoryStore{dense, NewMemoryStore(cells, cells/16, parts)} {
		n := 0
		for k := 0; k < cells; k += 3 {
			s.Add(k, float64(k+1))
			n++
		}
		if s.NonzeroCount() != n {
			t.Fatalf("%T holds %d coefficients after %d adds", s, s.NonzeroCount(), n)
		}
		for k := 0; k < cells; k++ {
			want := 0.0
			if k%3 == 0 {
				want = float64(k + 1)
			}
			if got := Get(s, k); got != want {
				t.Fatalf("%T key %d = %v, want %v", s, k, got, want)
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
		s.ForEachNonzero(func(int, float64) bool { scan++; return true })
		if s.NonzeroCount() != st.want || scan != st.want {
			t.Fatalf("after Add(%d, %v): count %d, scan %d, want %d", st.key, st.delta, s.NonzeroCount(), scan, st.want)
		}
	}
}

// TestIsInMemory: the base stores answer from memory, wrappers that add no
// fetch forward what they wrap, and everything that can stall or fail does
// not claim to.
func TestIsInMemory(t *testing.T) {
	array := func() Store { return NewArrayStore(make([]float64, 8)) }
	cached, err := NewCachedStore(array(), Unbounded)
	if err != nil {
		t.Fatal(err)
	}
	fault := NewFaultStore(array(), FaultConfig{})
	for _, c := range []struct {
		name string
		s    Store
		want bool
	}{
		{"array", array(), true},
		{"hash", NewHashStore(), true},
		{"instrumented(hash)", NewInstrumentedStore(NewHashStore()), true},
		{"retry(array)", NewRetryStore(array(), RetryConfig{}), true},
		{"fault", fault, false},
		{"instrumented(retry(fault))", NewInstrumentedStore(NewRetryStore(fault, RetryConfig{})), false},
		{"coalescing", NewCoalescingStore(NewHashStore()), false},
		{"cached", cached, false},
	} {
		if got := IsInMemory(c.s); got != c.want {
			t.Errorf("IsInMemory(%s) = %v, want %v", c.name, got, c.want)
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
