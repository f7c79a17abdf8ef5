package core

// Benches for the CSR/schedule refactor, consumed by `make bench-core`
// (BENCH_core.json): run setup cost heap-vs-schedule, per-step cost over the
// AoS replica vs the CSR layout, and prefetching StepBatch across batch
// sizes.

import (
	"fmt"
	"testing"

	"repro/internal/penalty"
	"repro/internal/storage"
)

// BenchmarkNewRun compares run setup on a shared plan: the retired per-run
// heap initialization (O(n) heap.Init + O(n) popped bitmap) against the
// schedule-cached cursor (O(1) after the first run pays the one-time sorted
// build).
func BenchmarkNewRun(b *testing.B) {
	f := newBenchPlanFixture(b)
	pen := penalty.SSE{}
	b.Run("heap-ref", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			newHeapRefRun(f.plan, pen, f.store)
		}
	})
	b.Run("schedule", func(b *testing.B) {
		f.plan.ScheduleFor(pen) // pay the one-time build outside the loop
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			NewRun(f.plan, pen, f.store)
		}
	})
}

// BenchmarkStepToCompletion compares full progressive drains: heap pops with
// per-entry bookkeeping vs the schedule cursor over the CSR arrays.
func BenchmarkStepToCompletion(b *testing.B) {
	f := newBenchPlanFixture(b)
	pen := penalty.SSE{}
	b.Run("heap-ref", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			run := newHeapRefRun(f.plan, pen, f.store)
			for run.step() {
			}
		}
	})
	b.Run("schedule", func(b *testing.B) {
		f.plan.ScheduleFor(pen)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run := NewRun(f.plan, pen, f.store)
			run.RunToCompletion()
		}
	})
}

// aosEntry/aosPlan replicate the retired array-of-structs master list so the
// layout cost of Exact can be measured against the CSR pass on identical
// data.
type aosEntry struct {
	key      int
	queryIdx []int32
	coeffs   []float64
}

type aosPlan struct {
	entries []aosEntry
	nq      int
}

func aosFromPlan(p *Plan) *aosPlan {
	a := &aosPlan{entries: make([]aosEntry, len(p.keys)), nq: p.NumQueries()}
	for i, key := range p.keys {
		idxs, cs := p.entryRefs(i)
		a.entries[i] = aosEntry{
			key:      key,
			queryIdx: append([]int32(nil), idxs...),
			coeffs:   append([]float64(nil), cs...),
		}
	}
	return a
}

func (a *aosPlan) exact(get func(int) float64) []float64 {
	est := make([]float64, a.nq)
	for i := range a.entries {
		e := &a.entries[i]
		v := get(e.key)
		if v == 0 {
			continue
		}
		for k, qi := range e.queryIdx {
			est[qi] += e.coeffs[k] * v
		}
	}
	return est
}

// BenchmarkExactLayout measures the layout effect: one exact pass over the
// master list in the retired AoS layout vs the flat CSR arrays. Against the
// hash store the map lookup dominates and the layouts tie; the array-store
// variants strip the retrieval cost to a slice index, exposing the memory
// traffic of the master-list walk itself.
func BenchmarkExactLayout(b *testing.B) {
	f := newBenchPlanFixture(b)
	aos := aosFromPlan(f.plan)
	b.Run("hash/aos", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			aos.exact(func(k int) float64 { return storage.Get(f.store, k) })
		}
	})
	b.Run("hash/csr", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.plan.Exact(f.store)
		}
	})
	b.Run("array/aos", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			aos.exact(func(k int) float64 { return storage.Get(f.array, k) })
		}
	})
	b.Run("array/csr", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f.plan.Exact(f.array)
		}
	})
}

// BenchmarkStepBatchPrefetch drains a run through the prefetching StepBatch
// at several batch sizes against the hash store — each batch is one
// BatchGetCtx over the schedule's precomputed key slice.
func BenchmarkStepBatchPrefetch(b *testing.B) {
	f := newBenchPlanFixture(b)
	pen := penalty.SSE{}
	f.plan.ScheduleFor(pen)
	for _, size := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				run := NewRun(f.plan, pen, f.store)
				for run.StepBatch(size) > 0 {
				}
			}
		})
	}
}
