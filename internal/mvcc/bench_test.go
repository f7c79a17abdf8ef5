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
