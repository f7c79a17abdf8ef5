package layout

import (
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/storage"
)

// benchCells is the drain size: 10,485,760 coefficients (~80 MiB of
// float64 payload), all nonzero, dense over the domain. This is the
// smallest size at which the drain is bandwidth-shaped rather than
// latency-shaped on this host.
const benchCells = 10 << 20

// benchDrainSlice mirrors the scheduler's batch slicing: the progressive
// engine asks for coefficients in schedule order, a few thousand at a time.
const benchDrainSlice = 4096

var (
	benchOnce    sync.Once
	benchSetupMu sync.Mutex
	benchFail    error
	benchDirPath string
	benchOrder   []int // canonical drain order: key of slot j, ascending j
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

// benchFiles builds the two files once: the .wvls layout of 10M random values
// and the same values as a raw little-endian float64 payload.
func benchFiles(b *testing.B) (wvls, raw string, order []int) {
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
		if err := Write(filepath.Join(dir, "bench.wvls"), keys, cells, WriteOptions{
			Cells: benchCells,
		}); err != nil {
			benchFail = err
			return
		}
		s, err := Open(filepath.Join(dir, "bench.wvls"), Options{})
		if err != nil {
			benchFail = err
			return
		}
		defer s.Close()
		benchOrder = make([]int, s.NonzeroCount())
		for j := range benchOrder {
			benchOrder[j] = s.KeyOfSlot(j)
		}
	})
	if benchFail != nil {
		b.Fatal(benchFail)
	}
	return filepath.Join(benchDirPath, "bench.wvls"),
		filepath.Join(benchDirPath, "bench.raw"),
		benchOrder
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

// BenchmarkStorageDrainLayout is the headline number: a cold progressive
// drain — fresh Store per iteration, so the block LRU starts empty and
// every cold block is read and decoded — over the full 10M-coefficient
// layout in schedule order. Bytes/op is the delivered coefficient payload,
// so the reported MB/s is useful bandwidth, not file bytes touched.
func BenchmarkStorageDrainLayout(b *testing.B) {
	wvls, _, order := benchFiles(b)
	b.SetBytes(int64(len(order)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(wvls, Options{})
		if err != nil {
			b.Fatal(err)
		}
		sink = drainBatches(s, order)
		_ = s.Close()
	}
}

// BenchmarkStorageDrainLayoutPread is the same cold drain through the
// no-mmap fallback: index sections resident, hot region and blocks via
// positioned reads.
func BenchmarkStorageDrainLayoutPread(b *testing.B) {
	wvls, _, order := benchFiles(b)
	b.SetBytes(int64(len(order)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(wvls, Options{DisableMmap: true})
		if err != nil {
			b.Fatal(err)
		}
		sink = drainBatches(s, order)
		_ = s.Close()
	}
}

// BenchmarkStorageSequentialRead is the bandwidth ceiling reference: read
// the same coefficient payload front to back with a 1 MiB buffer and touch
// every byte. No format, no lookup, no decode — any drain pays at least
// this much.
func BenchmarkStorageSequentialRead(b *testing.B) {
	_, raw, _ := benchFiles(b)
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
