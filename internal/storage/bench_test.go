package storage

import (
	"fmt"
	"testing"
)

func benchCells() []float64 {
	cells := make([]float64, 1<<16)
	for i := range cells {
		cells[i] = float64(i%97) + 0.25
	}
	return cells
}

// BenchmarkParallelReads is the in-memory base stores read by GOMAXPROCS
// goroutines at once (b.RunParallel), bare: no lock is taken, and the one
// word every reader writes is the atomic retrieval counter.
func BenchmarkParallelReads(b *testing.B) {
	cells := benchCells()
	stores := []struct {
		name string
		s    Store
	}{
		{"array", NewArrayStore(cells)},
		{"sparse", NewSparseStoreFromDense(cells)},
	}
	for _, st := range stores {
		b.Run(st.name+"/get", func(b *testing.B) {
			b.RunParallel(func(pb *testing.PB) {
				k := 0
				for pb.Next() {
					Get(st.s, k&(1<<16-1))
					k += 7919 // large prime stride scatters the reads
				}
			})
		})
	}
	for _, st := range stores {
		for _, batch := range []int{64, 1024} {
			b.Run(fmt.Sprintf("%s/batch=%d", st.name, batch), func(b *testing.B) {
				b.RunParallel(func(pb *testing.PB) {
					keys := make([]int, batch)
					dst := make([]float64, batch)
					k := 0
					for pb.Next() {
						for j := range keys {
							keys[j] = k & (1<<16 - 1)
							k += 7919
						}
						BatchGet(st.s, keys, dst)
					}
				})
			})
		}
	}
}

// BenchmarkCoalescingBatchGet is what the singleflight layer costs one caller
// with nothing to share: 1 024 distinct keys a call, through the layer and
// straight at the store under it. Run with -benchmem — allocations per call
// are the layer's own (one flight, three slices), whatever the batch size.
func BenchmarkCoalescingBatchGet(b *testing.B) {
	inner := NewArrayStore(benchCells())
	for _, st := range []struct {
		name string
		s    Store
	}{
		{"direct", inner},
		{"coalescing", NewCoalescingStore(inner)},
	} {
		b.Run(st.name, func(b *testing.B) {
			keys := make([]int, 1024)
			dst := make([]float64, len(keys))
			for j := range keys {
				keys[j] = j * 7919 & (1<<16 - 1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				BatchGet(st.s, keys, dst)
			}
		})
	}
}
