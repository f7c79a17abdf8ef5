package layout

import (
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"repro/internal/storage"
)

// benchCells is the drain size: 10,485,760 cells (~80 MiB of float64
// payload). This is the smallest size at which the drain is
// bandwidth-shaped rather than latency-shaped on this host.
const benchCells = 10 << 20

// benchDrainSlice mirrors the scheduler's batch slicing: the progressive
// engine asks for coefficients in schedule order, a few thousand at a time.
const benchDrainSlice = 4096

// The two layouts of the same random values: every cell nonzero, which
// Write lays out as the dense shape, and every fourth cell, which it lays
// out as the sparse shape. Both are drained in the canonical schedule order
// the engine asks for: |value| descending, key ascending. That is the
// sparse file's physical order and random key order over the dense file.
const (
	denseFixture  = "bench.wvls"
	sparseFixture = "bench-sparse.wvls"
)

var (
	benchOnce    sync.Once
	benchSetupMu sync.Mutex
	benchFail    error
	benchDirPath string
	benchOrder   = map[string][]int{} // per fixture: the keys in schedule order
)

// TestMain removes the ~400 MB benchmark fixture directory (if a benchmark
// run built one) after the package's tests and benches finish.
func TestMain(m *testing.M) {
	code := m.Run()
	if benchDirPath != "" {
		_ = os.RemoveAll(benchDirPath)
	}
	os.Exit(code)
}

// benchFiles builds the fixtures once and returns their directory: the two
// layouts and the values as a raw little-endian float64 payload.
func benchFiles(b *testing.B) string {
	b.Helper()
	benchSetupMu.Lock()
	defer benchSetupMu.Unlock()
	benchOnce.Do(func() {
		dir, err := os.MkdirTemp("", "layout-bench-*")
		if err != nil {
			benchFail = err
			return
		}
		benchDirPath = dir
		rng := rand.New(rand.NewSource(42))
		cells := make([]float64, benchCells)
		keys := make([]int, benchCells)
		for i := range cells {
			v := rng.NormFloat64()
			if v == 0 {
				v = 1e-9
			}
			cells[i] = v
			keys[i] = i
		}
		payload := make([]byte, 8*len(cells))
		for i, v := range cells {
			binary.LittleEndian.PutUint64(payload[8*i:], math.Float64bits(v))
		}
		if err := os.WriteFile(filepath.Join(dir, "bench.raw"), payload, 0o644); err != nil {
			benchFail = err
			return
		}
		quarterKeys, quarterValues := make([]int, 0, benchCells/4), make([]float64, 0, benchCells/4)
		for k := 0; k < benchCells; k += 4 {
			quarterKeys, quarterValues = append(quarterKeys, k), append(quarterValues, cells[k])
		}
		for name, kv := range map[string]struct {
			keys   []int
			values []float64
		}{denseFixture: {keys, cells}, sparseFixture: {quarterKeys, quarterValues}} {
			if _, err := Write(filepath.Join(dir, name), kv.keys, kv.values, WriteOptions{Cells: benchCells}); err != nil {
				benchFail = err
				return
			}
			order := slices.Clone(kv.keys)
			slices.SortFunc(order, func(a, b int) int {
				if c := cmp.Compare(math.Abs(cells[b]), math.Abs(cells[a])); c != 0 {
					return c
				}
				return cmp.Compare(a, b)
			})
			benchOrder[name] = order
		}
	})
	if benchFail != nil {
		b.Fatal(benchFail)
	}
	return benchDirPath
}

// drainBatches walks the schedule order through BatchGet in scheduler-sized
// slices, accumulating a checksum so the reads cannot be elided.
func drainBatches(g storage.Store, order []int) float64 {
	dst := make([]float64, benchDrainSlice)
	sum := 0.0
	for lo := 0; lo < len(order); lo += benchDrainSlice {
		hi := lo + benchDrainSlice
		if hi > len(order) {
			hi = len(order)
		}
		storage.BatchGet(g, order[lo:hi], dst[:hi-lo])
		for _, v := range dst[:hi-lo] {
			sum += v
		}
	}
	return sum
}

// benchDrain is a cold progressive drain of one fixture in schedule order —
// a fresh Store per iteration, so no block is verified yet and every block
// is read and checksummed. Bytes/op is the delivered
// coefficient payload, so the reported MB/s is useful bandwidth, not file
// bytes touched.
func benchDrain(b *testing.B, fixture string, opts Options) {
	path := filepath.Join(benchFiles(b), fixture)
	order := benchOrder[fixture]
	b.SetBytes(int64(len(order)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(path, opts)
		if err != nil {
			b.Fatal(err)
		}
		sink = drainBatches(s, order)
		_ = s.Close()
	}
}

// BenchmarkStorageDrainLayout is the headline number: the cold drain of the
// 10M-cell dense layout through the mapping, one random key at a time.
func BenchmarkStorageDrainLayout(b *testing.B) { benchDrain(b, denseFixture, Options{}) }

// BenchmarkStorageDrainLayoutPread is the same drain through the no-mmap
// fallback: each block one whole positioned read and a checksum, then one
// positioned read per run of keys, nearly every run a single key.
func BenchmarkStorageDrainLayoutPread(b *testing.B) {
	benchDrain(b, denseFixture, Options{DisableMmap: true})
}

// BenchmarkStorageDrainLayoutSparse drains the quarter-full sparse layout
// in schedule order through the mapping: hot region, then blocks.
func BenchmarkStorageDrainLayoutSparse(b *testing.B) { benchDrain(b, sparseFixture, Options{}) }

// BenchmarkStorageDrainLayoutSparsePread is the sparse drain through the
// no-mmap fallback: index sections resident, hot region and blocks pread.
func BenchmarkStorageDrainLayoutSparsePread(b *testing.B) {
	benchDrain(b, sparseFixture, Options{DisableMmap: true})
}

// BenchmarkStorageSequentialRead is the bandwidth ceiling reference: read
// the same coefficient payload front to back with a 1 MiB buffer and touch
// every byte. No format, no lookup, no decode — any drain pays at least
// this much.
func BenchmarkStorageSequentialRead(b *testing.B) {
	raw := filepath.Join(benchFiles(b), "bench.raw")
	st, err := os.Stat(raw)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(st.Size())
	buf := make([]byte, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := os.Open(raw)
		if err != nil {
			b.Fatal(err)
		}
		var total int64
		var acc byte
		for {
			n, err := f.Read(buf)
			for _, c := range buf[:n] {
				acc += c
			}
			total += int64(n)
			if err != nil {
				break
			}
		}
		_ = f.Close()
		if total != st.Size() {
			b.Fatalf("sequential read covered %d of %d bytes", total, st.Size())
		}
		sink = float64(acc)
	}
}

// sink defeats dead-code elimination across benchmarks.
var sink float64
