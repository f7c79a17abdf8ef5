package repro

// The in-memory store's benches behind BENCH_storage.json's "in-memory store"
// row (`make bench-storage`): what `wvqd -db` pays to open a .wvls file
// (mapped: BenchmarkOpenLayout), what LoadDatabase pays to bring one into
// memory, what a loaded database then keeps resident per coefficient, and
// what one lookup costs — on the synthetic temperature set at the benchmark fixture's size
// (32×32×8×32×32, ≈ 6.3 M coefficients, 75 % of the cells), at an eighth of
// its domain (every one of its 2²⁰ cells nonzero) and on a sparse transform
// of the full domain (24 records: an eighth of the cells), so that both sides
// of storage.Build's array-or-sparse rule keep a row — and both
// shapes of the file: the first two are written dense, the third sparse.
// Resident bytes are the process's RSS growth across a load (Linux only),
// since the store lives in an anonymous mapping the heap statistics do not
// count; the heap's own growth is reported beside it.

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
)

type storeBenchCase struct {
	name     string
	tempBins int
	records  int
	filter   *Filter

	once sync.Once
	err  error
	file []byte
	db   *Database
	// schedules are the retrieval orders of a few plans, the keys the step
	// loop asks the store for; uniform is 64 batches of 16 Ki keys drawn
	// uniformly from the domain (a quarter of them absent at 6M, none at
	// 1M): more distinct slots than the CPU caches hold.
	schedules [][]int
	uniform   [][]int
}

var storeBenchCases = []*storeBenchCase{
	{name: "1M", tempBins: 4, records: 25_000, filter: Db6},
	{name: "6M", tempBins: 32, records: 200_000, filter: Db6},
	{name: "sparse", tempBins: 32, records: 24, filter: Db4},
}

func (c *storeBenchCase) build(b *testing.B) {
	b.Helper()
	c.once.Do(func() {
		cfg := DefaultTemperatureConfig()
		cfg.Records, cfg.TempBins = c.records, c.tempBins
		dist, err := Temperature(cfg)
		if err != nil {
			c.err = err
			return
		}
		db, err := NewDatabase(dist, c.filter)
		if err != nil {
			c.err = err
			return
		}
		var buf bytes.Buffer
		if c.err = db.Save(&buf); c.err != nil {
			return
		}
		c.file = buf.Bytes()
		if c.db, c.err = LoadDatabase(bytes.NewReader(c.file)); c.err != nil {
			return
		}
		for i, attr := range []string{"latitude", "longitude", "time"} {
			stmt := fmt.Sprintf("SUM(temperature) WHERE %s BETWEEN 4 AND %d GROUP BY altitude(4)", attr, 11+5*i)
			if i == 2 {
				stmt = "COUNT() WHERE altitude BETWEEN 1 AND 6 GROUP BY latitude(8), longitude(16)"
			}
			batch, err := ParseBatch(c.db.Schema(), stmt)
			if err != nil {
				c.err = err
				return
			}
			plan, err := c.db.Plan(batch)
			if err != nil {
				c.err = err
				return
			}
			c.schedules = append(c.schedules, plan.ScheduleFor(SSE()).KeyOrder())
		}
		rng := rand.New(rand.NewSource(1))
		pool := make([]int, 1<<20)
		for i := range pool {
			pool[i] = rng.Intn(c.db.Schema().Cells())
		}
		for ; len(pool) > 0; pool = pool[1<<14:] {
			c.uniform = append(c.uniform, pool[:1<<14])
		}
	})
	if c.err != nil {
		b.Fatal(c.err)
	}
}

// BenchmarkLoadDatabase times LoadDatabase from memory (no disk in the
// number) and reports the bytes the loaded database keeps per coefficient:
// resident-B/coeff is the process's RSS growth across the last load, taken
// once the previous database is gone, and heap-B/coeff the heap's growth
// across it, after a collection on either side. A store outside the heap
// shows in the first and not in the second; huge pages that rounded a
// mapping up would inflate the first.
func BenchmarkLoadDatabase(b *testing.B) {
	for _, c := range storeBenchCases {
		b.Run(c.name, func(b *testing.B) {
			c.build(b)
			b.ReportAllocs()
			var before, after runtime.MemStats
			var rssBefore int64
			var db *Database
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db = nil
				rssBefore = settledRSS()
				runtime.ReadMemStats(&before)
				b.StartTimer()
				var err error
				if db, err = LoadDatabase(bytes.NewReader(c.file)); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			rssAfter := settledRSS()
			runtime.ReadMemStats(&after)
			n := float64(db.NonzeroCoefficients())
			if rssBefore > 0 && rssAfter > 0 {
				b.ReportMetric(float64(rssAfter-rssBefore)/n, "resident-B/coeff")
			}
			b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/n, "heap-B/coeff")
			b.ReportMetric(float64(len(c.file))/n, "file-B/coeff")
			b.ReportMetric(n, "coeffs")
			b.ReportMetric(n/float64(db.Schema().Cells()), "density")
		})
	}
}

// BenchmarkOpenShardServer times what `wvqd -shard-listen` pays before it
// listens: OpenLayout maps the .wvls file, and NewShardServer checks its
// index sections and every block's checksum once and takes the nonzero
// count and mass from its header, copying nothing.
func BenchmarkOpenShardServer(b *testing.B) {
	for _, c := range storeBenchCases {
		b.Run(c.name, func(b *testing.B) {
			c.build(b)
			path := filepath.Join(b.TempDir(), c.name+".wvls")
			if err := os.WriteFile(path, c.file, 0o644); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var ss *ShardServer
			for i := 0; i < b.N; i++ {
				db, err := OpenLayout(path)
				if err != nil {
					b.Fatal(err)
				}
				if ss, err = db.NewShardServer(0, 2, nil); err != nil {
					b.Fatal(err)
				}
				if err := db.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(ss.Nonzero()), "coeffs")
		})
	}
}

// BenchmarkOpenLayout times what `wvqd -db` (with or without -mvcc) pays
// before it listens on a .wvls file: OpenLayout maps it and checks its
// header, so the number does not grow with the file; Close unmaps it.
func BenchmarkOpenLayout(b *testing.B) {
	for _, c := range storeBenchCases {
		b.Run(c.name, func(b *testing.B) {
			c.build(b)
			path := filepath.Join(b.TempDir(), c.name+".wvls")
			if err := os.WriteFile(path, c.file, 0o644); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db, err := OpenLayout(path)
				if err != nil {
					b.Fatal(err)
				}
				if err := db.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// settledRSS collects, hands freed heap pages back to the kernel and reads
// the process's resident bytes, a few rounds apart so that the finalizer of
// a dropped store — it runs on its own goroutine after the collection that
// finds the store unreachable — has unmapped it. It returns 0 where
// /proc/self/status has no VmRSS line (off Linux).
func settledRSS() int64 {
	for i := 0; i < 5; i++ {
		time.Sleep(time.Millisecond)
		debug.FreeOSMemory()
	}
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			var kb int64
			if _, err := fmt.Sscanf(rest, "%d kB", &kb); err == nil {
				return kb << 10
			}
		}
	}
	return 0
}

// BenchmarkStoreBatchGet asks the loaded store — array or table, as
// LoadDatabase chose — for one plan's whole retrieval schedule per call (a
// different plan each call), and for 16 Ki uniformly random keys per call;
// the mapped rows ask OpenLayout's view of the same file the same, so the
// directory file's key search has a row beside the rank files' lookup.
func BenchmarkStoreBatchGet(b *testing.B) {
	for _, c := range storeBenchCases {
		b.Run(c.name, func(b *testing.B) {
			c.build(b)
			path := filepath.Join(b.TempDir(), c.name+".wvls")
			if err := os.WriteFile(path, c.file, 0o644); err != nil {
				b.Fatal(err)
			}
			mapped, err := OpenLayout(path)
			if err != nil {
				b.Fatal(err)
			}
			defer func() { _ = mapped.Close() }()
			run := func(name string, store storage.Store, batches [][]int) {
				b.Run(name, func(b *testing.B) {
					longest := 0
					for _, order := range batches {
						longest = max(longest, len(order))
					}
					dst := make([]float64, longest)
					keys := 0
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						order := batches[i%len(batches)]
						storage.BatchGet(store, order, dst[:len(order)])
						keys += len(order)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(keys), "ns/key")
				})
			}
			run("schedule", c.db.store, c.schedules)
			run("uniform", c.db.store, c.uniform)
			run("mapped/schedule", mapped.store, c.schedules)
			run("mapped/uniform", mapped.store, c.uniform)
		})
	}
}
