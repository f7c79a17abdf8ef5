package core

import (
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/penalty"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/wavelet"
)

// poolBatches mirrors the two batch shapes of the repo benchmark's handle
// pool on the 5-D temperature cube (32·32·32·8·32, Db6): n 8-cell batches,
// alternately SUM(temperature) WHERE b BETWEEN .. GROUP BY a(4) and COUNT()
// WHERE c BETWEEN .. GROUP BY a(8), b(16), each with its own range constants
// — same shapes recur, constants never do.
func poolBatches(tb testing.TB, n int) []query.Batch {
	tb.Helper()
	schema := dataset.MustSchema(
		[]string{"latitude", "longitude", "time", "altitude", "temperature"},
		[]int{32, 32, 32, 8, 32})
	out := make([]query.Batch, n)
	for i := range out {
		lo := i % 12
		hi := lo + 3 + (i/2)%17
		var batch query.Batch
		for cell := 0; cell < 8; cell++ {
			r := query.FullDomain(schema)
			if i%2 == 0 {
				r.Lo[0], r.Hi[0] = 4*cell, 4*cell+3
				r.Lo[1], r.Hi[1] = lo, hi
				q, err := query.Sum(schema, r, "temperature")
				if err != nil {
					tb.Fatal(err)
				}
				batch = append(batch, q)
			} else {
				r.Lo[0], r.Hi[0] = 8*(cell/2), 8*(cell/2)+7
				r.Lo[1], r.Hi[1] = 16*(cell%2), 16*(cell%2)+15
				r.Lo[2], r.Hi[2] = lo, hi
				batch = append(batch, query.Count(schema, r))
			}
		}
		out[i] = batch
	}
	return out
}

// BenchmarkRegistryMiss is a registry miss with resident shapes and fresh
// constants — what /prepare and every ad-hoc request pay: canonicalise,
// rewrite, merge (or verify against a same-shape template), warm the SSE
// schedule. The registry is emptied between passes over the pool, untimed.
// resident-B/plan is the heap a full registry of the pool retains after a
// GC, over an empty one's, divided by the plans.
func BenchmarkRegistryMiss(b *testing.B) {
	batches := poolBatches(b, 32)
	reg := NewPlanRegistry(wavelet.Db6, 0)
	reg.WarmSchedules(penalty.SSE{})
	var handles []string
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(handles) == len(batches) {
			b.StopTimer()
			for _, h := range handles {
				reg.Remove(h)
			}
			handles = handles[:0]
			b.StartTimer()
		}
		prep, _, hit, err := reg.Prepare(batches[len(handles)], "")
		if err != nil || hit {
			b.Fatalf("hit=%v err=%v", hit, err)
		}
		handles = append(handles, prep.Fingerprint)
	}
	b.StopTimer()
	for _, h := range handles {
		reg.Remove(h)
	}
	resident := heapRetained(func() any {
		for _, batch := range batches {
			if _, _, _, err := reg.Prepare(batch, ""); err != nil {
				b.Fatal(err)
			}
		}
		return reg
	})
	b.ReportMetric(float64(resident)/float64(len(batches)), "resident-B/plan")
}

// heapRetained returns the heap bytes that build's result keeps live after a
// GC, over the heap live before it ran.
func heapRetained(build func() any) int64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	kept := build()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(kept)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc)
}

// BenchmarkFirstQueryErrorBounds is the first per-query bound read of a run
// one slice into a prepared plan — the cost between a prepared execute and
// its first progress event.
func BenchmarkFirstQueryErrorBounds(b *testing.B) {
	batches := poolBatches(b, 4)
	plans := make([]*Plan, len(batches))
	for i, batch := range batches {
		p, err := NewWaveletPlan(batch, wavelet.Db6)
		if err != nil {
			b.Fatal(err)
		}
		p.ScheduleFor(penalty.SSE{})
		plans[i] = p
	}
	store := storage.NewHashStore()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		run := NewRun(plans[i%len(plans)], penalty.SSE{}, store)
		stepBatch(run, 1024)
		b.StartTimer()
		run.QueryErrorBounds(1)
	}
}
