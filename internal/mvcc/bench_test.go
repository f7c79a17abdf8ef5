package mvcc

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/wavelet"
)

// benchDims is a realistically sized 2-D domain for the write benchmarks.
var benchDims = []int{256, 256}

func newBenchStore(b *testing.B) *Store {
	b.Helper()
	s, err := New(storage.NewHashStore(), wavelet.Haar, benchDims, 0, 0, Config{})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	return s
}

// randCoords pre-generates n deterministic tuples so the RNG is off the
// measured path.
func randCoords(n int) [][]int {
	rng := rand.New(rand.NewSource(42))
	out := make([][]int, n)
	for i := range out {
		out[i] = []int{rng.Intn(benchDims[0]), rng.Intn(benchDims[1])}
	}
	return out
}

// BenchmarkApplySingleTuple measures the one-tuple-per-version write path —
// the legacy Insert cadence. b.N tuples → b.N published versions.
func BenchmarkApplySingleTuple(b *testing.B) {
	s := newBenchStore(b)
	coords := randCoords(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Apply(context.Background(), NewBatch().Add(coords[i], 1)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	s.WaitCompactions()
	reportTuplesPerSec(b)
}

// BenchmarkApplyBatched measures the batched write path at several batch
// sizes: b.N tuples total, one version per batch.
func BenchmarkApplyBatched(b *testing.B) {
	for _, size := range []int{64, 1024, 8192} {
		b.Run(benchName(size), func(b *testing.B) {
			s := newBenchStore(b)
			coords := randCoords(b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for off := 0; off < b.N; off += size {
				batch := NewBatch()
				for i := off; i < off+size && i < b.N; i++ {
					batch.Add(coords[i], 1)
				}
				if _, err := s.Apply(context.Background(), batch); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			s.WaitCompactions()
			reportTuplesPerSec(b)
		})
	}
}

// BenchmarkReadLatencyUnderWrites measures head-snapshot read latency (p50,
// p99) while a writer sustains batched applies — the "reader p99 during
// writes" number of BENCH_ingest.json.
func BenchmarkReadLatencyUnderWrites(b *testing.B) {
	s := newBenchStore(b)
	// Preload so reads hit real data.
	pre := NewBatch()
	for _, c := range randCoords(4096) {
		pre.Add(c, 1)
	}
	if _, err := s.Apply(context.Background(), pre); err != nil {
		b.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(9))
		for {
			select {
			case <-stop:
				return
			default:
			}
			batch := NewBatch()
			for i := 0; i < 256; i++ {
				batch.Add([]int{rng.Intn(benchDims[0]), rng.Intn(benchDims[1])}, 1)
			}
			if _, err := s.Apply(context.Background(), batch); err != nil {
				return
			}
		}
	}()

	keys := make([]int, 64)
	rng := rand.New(rand.NewSource(1))
	for i := range keys {
		keys[i] = rng.Intn(benchDims[0] * benchDims[1])
	}
	dst := make([]float64, len(keys))
	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view := s.View()
		t0 := time.Now()
		if err := view.BatchGetCtx(context.Background(), keys, dst); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(t0))
	}
	b.StopTimer()
	close(stop)
	wg.Wait()
	s.WaitCompactions()

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if len(lat) > 0 {
		b.ReportMetric(float64(lat[len(lat)/2].Nanoseconds()), "p50-ns")
		b.ReportMetric(float64(lat[len(lat)*99/100].Nanoseconds()), "p99-ns")
	}
}

// BenchmarkOverlayRead measures one 64-key read of a view with 0, 1, 2 and
// 15 write batches above its base (auto-compaction off; each batch 256
// uniform tuples on a 1024×1024 Db4 domain), 27 % of the keys held by the
// overlay — none at depth 0. A read's cost per key should not grow with the
// depth.
func BenchmarkOverlayRead(b *testing.B) {
	ctx := context.Background()
	dims := []int{1024, 1024}
	cells := dims[0] * dims[1]
	rng := rand.New(rand.NewSource(3))
	base := storage.NewHashStore()
	for i := 0; i < cells/3; i++ {
		base.Add(rng.Intn(cells), rng.NormFloat64())
	}
	s, err := New(base, wavelet.Db4, dims, 0, 0, Config{DisableAutoCompact: true})
	if err != nil {
		b.Fatal(err)
	}
	held, depth := map[int]bool{}, 0
	for _, applied := range []int{0, 1, 2, 15} {
		for ; depth < applied; depth++ {
			batch := NewBatch()
			for i := 0; i < 256; i++ {
				batch.Add([]int{rng.Intn(dims[0]), rng.Intn(dims[1])}, 1)
			}
			delta, err := batch.Delta(wavelet.Db4, dims)
			if err != nil {
				b.Fatal(err)
			}
			for k := range delta {
				held[k] = true
			}
			if _, err := s.Apply(ctx, batch); err != nil {
				b.Fatal(err)
			}
		}
		hits := make([]int, 0, len(held))
		for k := range held {
			hits = append(hits, k)
		}
		sort.Ints(hits)
		// 256 reads of 64 keys, drawn off the measured path.
		reads := make([][]int, 256)
		for r := range reads {
			keys := make([]int, 64)
			for i := range keys {
				k := rng.Intn(cells)
				if len(hits) > 0 && rng.Intn(100) < 27 {
					k = hits[rng.Intn(len(hits))]
				} else {
					for held[k] {
						k = rng.Intn(cells)
					}
				}
				keys[i] = k
			}
			reads[r] = keys
		}
		v := s.View()
		b.Run("depth"+itoa(applied), func(b *testing.B) {
			dst := make([]float64, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := v.BatchGetCtx(ctx, reads[i%len(reads)], dst); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*64), "ns/key")
		})
	}
}

func benchName(size int) string {
	switch {
	case size >= 1024:
		return "batch" + itoa(size/1024) + "k"
	default:
		return "batch" + itoa(size)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// reportTuplesPerSec converts the standard ns/op into an explicit
// tuples-per-second metric so the ingest comparison reads directly.
func reportTuplesPerSec(b *testing.B) {
	if b.Elapsed() > 0 {
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
	}
}
