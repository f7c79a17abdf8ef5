package repro

// Differential tests of the array-or-sparse decision (storage.Build):
// whichever representation a build site is handed, every value served, every
// estimate of a progressive drain, every bound and every saved byte is the
// same. Two files of one shape stand on either side of the rule —
// savedTemperature has every one of its 2¹⁸ cells nonzero, the sparse file
// 8 % of them, under the quarter from which the rule picks the array.

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/codec"
	"repro/internal/storage"
	"repro/internal/wavelet"
)

// savedSparseTemperature is savedTemperature's domain under the Db4
// transform of one record: ≈ 21 000 coefficients, 8 % of the cells.
func savedSparseTemperature(t testing.TB) []byte {
	t.Helper()
	cfg := DefaultTemperatureConfig()
	cfg.Records, cfg.LatBins, cfg.LonBins, cfg.TimeBins, cfg.TempBins = 1, 16, 16, 16, 8
	dist, err := Temperature(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDatabase(dist, Db4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

var representationFixtures = []struct {
	name  string
	file  func(t testing.TB) []byte
	array bool // what the rule picks for the whole file
}{
	{"dense", func(t testing.TB) []byte { file, _ := savedTemperature(t); return file }, true},
	{"sparse", savedSparseTemperature, false},
}

func isArrayStore(s storage.Store) bool { _, ok := s.(*storage.ArrayStore); return ok }

// loadAs is LoadDatabase with the store built from the given sizes instead
// of the header's, which is how a test reaches the representation the rule
// did not pick: a domain of 0 (unknown) is always the sparse store, a count
// equal to the domain always an array. It reads the file with codec.Read, a
// walk of its own, and sums the mass in ascending key order as LoadDatabase
// does.
func loadAs(t *testing.T, file []byte, array bool) *Database {
	t.Helper()
	snap, err := codec.Read(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	filter, err := wavelet.ByName(snap.FilterName)
	if err != nil {
		t.Fatal(err)
	}
	cells, count := 0, snap.Count
	if array {
		cells, count = snap.Schema.Cells(), snap.Schema.Cells()
	}
	var mass float64
	store, err := storage.Build(cells, count, func(fn func(int, float64) bool) error {
		for i, k := range snap.Keys {
			mass += math.Abs(snap.Values[i])
			if !fn(k, snap.Values[i]) {
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	db := newDatabase(snap.Schema, filter, store, snap.TupleCount, mass)
	db.windows = snap.Windows
	if isArrayStore(db.base) != array {
		t.Fatalf("asked for array=%v, built %T", array, db.base)
	}
	return db
}

func representationPlan(t *testing.T, db *Database) *Plan {
	t.Helper()
	batch, err := ParseBatch(db.Schema(),
		"SUM(temperature) WHERE latitude BETWEEN 2 AND 13 GROUP BY altitude(4); COUNT() WHERE time <= 9 GROUP BY longitude(4)")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// sameDrain steps a run on each evaluator one coefficient at a time and
// requires every prefix's estimates and per-query bounds (under one mass) to
// be the same floats, then the exact answers.
func sameDrain(t *testing.T, what string, a, b Evaluator, plan *Plan, mass float64) {
	t.Helper()
	ctx := context.Background()
	ra, rb := a.NewRun(plan, SSE()), b.NewRun(plan, SSE())
	for step := 0; !ra.Done(); step++ {
		na, err := ra.StepBatchCtx(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		nb, err := rb.StepBatchCtx(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		if na != nb {
			t.Fatalf("%s step %d: advanced %d and %d", what, step, na, nb)
		}
		ea, eb := ra.Estimates(), rb.Estimates()
		for q := range ea {
			if math.Float64bits(ea[q]) != math.Float64bits(eb[q]) {
				t.Fatalf("%s step %d query %d: estimates %v and %v", what, step, q, ea[q], eb[q])
			}
		}
		if step%64 == 0 || ra.Done() {
			ba, bb := ra.QueryErrorBounds(mass), rb.QueryErrorBounds(mass)
			for q := range ba {
				if ba[q] != bb[q] {
					t.Fatalf("%s step %d query %d: bounds %v and %v", what, step, q, ba[q], bb[q])
				}
			}
		}
	}
	if !rb.Done() {
		t.Fatalf("%s: one drain finished before the other", what)
	}
	xa, err := a.ExactCtx(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	xb, err := b.ExactCtx(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	for q := range xa {
		if math.Float64bits(xa[q]) != math.Float64bits(xb[q]) {
			t.Fatalf("%s query %d: exact %v and %v", what, q, xa[q], xb[q])
		}
	}
}

// TestLoadedRepresentationsAgree: the loaded database, in the store the rule
// picks, the file read into the store the rule did not pick, and the mapped
// file (OpenLayout) carry the same count and mass, drain to the same floats
// and save back to the same bytes.
func TestLoadedRepresentationsAgree(t *testing.T) {
	for _, fx := range representationFixtures {
		t.Run(fx.name, func(t *testing.T) {
			file := fx.file(t)
			chosen, err := LoadDatabase(bytes.NewReader(file))
			if err != nil {
				t.Fatal(err)
			}
			if isArrayStore(chosen.base) != fx.array {
				t.Fatalf("%d coefficients of %d cells loaded as %T", chosen.NonzeroCoefficients(), chosen.Schema().Cells(), chosen.base)
			}
			mapped, err := OpenLayout(savedFile(t, fx.name+".wvls", file))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = mapped.Close() })
			mass, err := chosen.CoefficientMass()
			if err != nil {
				t.Fatal(err)
			}
			plan := representationPlan(t, chosen)
			other := loadAs(t, file, !fx.array)
			for _, o := range []struct {
				what string
				db   *Database
			}{{"the other store", other}, {"the mapped file", mapped}} {
				if chosen.NonzeroCoefficients() != o.db.NonzeroCoefficients() {
					t.Fatalf("%s: counts %d and %d", o.what, chosen.NonzeroCoefficients(), o.db.NonzeroCoefficients())
				}
				if m, err := o.db.CoefficientMass(); err != nil || m != mass {
					t.Fatalf("%s: masses %v and %v (%v)", o.what, mass, m, err)
				}
				sameDrain(t, "loaded vs "+o.what, chosen, o.db, plan, mass)
			}
			for _, db := range []*Database{chosen, other, mapped} {
				var again bytes.Buffer
				if err := db.Save(&again); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(file, again.Bytes()) {
					t.Fatalf("Save of the %T changed the file's bytes", db.base)
				}
			}
		})
	}
}

// serveShards starts the given shard servers on loopback listeners and opens
// the distributed view over them.
func serveShards(t *testing.T, servers []*ShardServer) *Database {
	t.Helper()
	addrs := make([]string, len(servers))
	for i, ss := range servers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = ss.Serve(ln) }()
		t.Cleanup(func() { _ = ss.Close() })
		addrs[i] = ln.Addr().String()
	}
	ddb, err := OpenDistributed(addrs, DistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ddb.Close() })
	return ddb
}

// TestShardRepresentationsAgree: shards opened from the file serve its
// mapping, and shards of the loaded database serve the store the rule picks
// for the whole file — an array for the dense file, the sparse store for the
// sparse one; a drain through either deployment, 1- or 2-way, is the single-node
// drain.
func TestShardRepresentationsAgree(t *testing.T) {
	for _, fx := range representationFixtures {
		t.Run(fx.name, func(t *testing.T) {
			file := fx.file(t)
			path := savedFile(t, fx.name+".wvls", file)
			db, err := LoadDatabase(bytes.NewReader(file))
			if err != nil {
				t.Fatal(err)
			}
			if got := isArrayStore(db.base); got != fx.array {
				t.Fatalf("fixture drifted: the file loads as array=%v", got)
			}
			mass, err := db.CoefficientMass()
			if err != nil {
				t.Fatal(err)
			}
			plan := representationPlan(t, db)
			want := "sparse"
			if fx.array {
				want = "array"
			}
			for _, count := range []int{1, 2} {
				mapped, loaded := make([]*ShardServer, count), make([]*ShardServer, count)
				for i := range mapped {
					odb, err := OpenLayout(path)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { _ = odb.Close() })
					if mapped[i], err = odb.NewShardServer(i, count, nil); err != nil {
						t.Fatal(err)
					}
					if loaded[i], err = db.NewShardServer(i, count, nil); err != nil {
						t.Fatal(err)
					}
					if a, b := mapped[i].StoreStack(), loaded[i].StoreStack(); a != "layout" || b != want {
						t.Fatalf("shard %d of %d: the mapped file's serves %q, the loaded database's %q (want layout, %s)", i, count, a, b, want)
					}
				}
				sameDrain(t, "shards of the mapped file vs single node", db, serveShards(t, mapped), plan, mass)
				sameDrain(t, "shards of the loaded database vs single node", db, serveShards(t, loaded), plan, mass)
			}
		})
	}
}

// TestMVCCRepresentationsAgree: over either base, eight applies and a
// compaction (whose target the same rule picks) serve the same floats, and a
// snapshot pinned before the fold reads the same before and after it. The
// applies revisit two tuples, so layers shadow one another and the sparse
// view stays under a quarter full (≈ 53 000 coefficients): its fold builds
// the sparse store, the dense one's an array.
func TestMVCCRepresentationsAgree(t *testing.T) {
	ctx := context.Background()
	for _, fx := range representationFixtures {
		t.Run(fx.name, func(t *testing.T) {
			file := fx.file(t)
			dbs := []*Database{loadAs(t, file, true), loadAs(t, file, false)}
			plan := representationPlan(t, dbs[0])
			var pinned [2]*Snapshot
			var before [2][]float64
			for i, db := range dbs {
				if err := db.EnableMVCC(MVCCConfig{DisableAutoCompact: true}); err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(5))
				var tuples [2][]int
				for j := range tuples {
					for _, n := range db.Schema().Sizes {
						tuples[j] = append(tuples[j], rng.Intn(n))
					}
				}
				for b := 0; b < 8; b++ {
					if _, err := db.Apply(ctx, NewWriteBatch().Add(tuples[b%len(tuples)], float64(1+b))); err != nil {
						t.Fatal(err)
					}
				}
				var err error
				if pinned[i], err = db.Snapshot(); err != nil {
					t.Fatal(err)
				}
				defer pinned[i].Release()
				before[i] = pinned[i].Exact(plan)
			}
			// The two open-time masses are sums in different orders; one value
			// for both sides keeps the bound comparison about the runs.
			mass := dbs[0].mvcc.Mass()
			if other := dbs[1].mvcc.Mass(); math.Abs(mass-other) > 1e-12*mass {
				t.Fatalf("masses %v and %v", mass, other)
			}
			sameDrain(t, "layered, array vs sparse base", dbs[0], dbs[1], plan, mass)
			for i, db := range dbs {
				if err := db.CompactNow(ctx); err != nil {
					t.Fatal(err)
				}
				if st, _ := db.MVCCStats(); st.Layers != 0 || st.Compactions != 1 {
					t.Fatalf("after CompactNow: %+v", st)
				}
				if !db.InMemory() {
					t.Fatal("compaction left a base chain that does not answer from memory")
				}
				if got := strings.HasPrefix(db.StoreStack(), "array → "); got != fx.array {
					t.Fatalf("fixture drifted: the fold built %s", db.StoreStack())
				}
				after := pinned[i].Exact(plan)
				for q := range after {
					if math.Float64bits(before[i][q]) != math.Float64bits(after[q]) {
						t.Fatalf("db %d query %d: pinned snapshot read %v before the fold, %v after", i, q, before[i][q], after[q])
					}
				}
			}
			sameDrain(t, "compacted, array vs sparse base", dbs[0], dbs[1], plan, mass)
			sameDrain(t, "head vs snapshot pinned before the fold", dbs[0], pinned[1], plan, mass)
		})
	}
}

// storesOffHeap says the in-memory stores are anonymous mappings, not Go
// heap: true on unix outside -race builds (memory_store_unix_test.go).
var storesOffHeap bool

// allocatesItsStoreOnce checks what load allocates against the store it
// builds for count of cells coefficients: beyond the array (8 bytes a cell)
// or the sparse store (16 bytes a key, and its bucket directory, about half a
// byte a key on the Go heap), everything fits in 4 MiB. Where the store is a
// mapping, its keys and values are not Go heap: the load allocates less than
// half of the store.
func allocatesItsStoreOnce(t *testing.T, what string, cells, count int, array bool, load func() (stack string, err error)) {
	t.Helper()
	storeBytes := uint64(cells) * 8
	if !array {
		storeBytes = uint64(count) * 16
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stack, err := load()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	limit := storeBytes + 4<<20
	if storesOffHeap {
		limit = storeBytes / 2
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Fatalf("%s allocated %d bytes of Go heap (limit %d); its %s store is %d", what, got, limit, stack, storeBytes)
	}
}

// fileSizes reads a saved database's domain and coefficient count.
func fileSizes(t *testing.T, file []byte) (cells, count int) {
	t.Helper()
	snap, err := codec.Read(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	return snap.Schema.Cells(), len(snap.Keys)
}

// TestLoadDatabaseAllocatesItsStoreOnce, on both sides of the rule.
func TestLoadDatabaseAllocatesItsStoreOnce(t *testing.T) {
	for _, fx := range representationFixtures {
		file := fx.file(t)
		cells, count := fileSizes(t, file)
		allocatesItsStoreOnce(t, fx.name+": LoadDatabase", cells, count, fx.array, func() (string, error) {
			db, err := LoadDatabase(bytes.NewReader(file))
			if err != nil {
				return "", err
			}
			return db.StoreStack(), nil
		})
	}
}

// TestLoadShardServerAllocatesItsStoreOnce: a 1-of-2 shard of a mapped
// file, dense or sparse, has one store, the mapping, and copies nothing of
// it: opening the shard, which checks every block of the file, leaves under
// 1 % of the file on the Go heap.
func TestLoadShardServerAllocatesItsStoreOnce(t *testing.T) {
	for _, fx := range representationFixtures {
		file := fx.file(t)
		db, err := OpenLayout(savedFile(t, fx.name+".wvls", file))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = db.Close() }()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		ss, err := db.NewShardServer(0, 2, nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		// Only where the file is mapped and its check reads no scratch off the
		// stack: on unix outside -race builds, as for storesOffHeap.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(file))/100; storesOffHeap && got >= limit {
			t.Fatalf("a mapped %s shard allocated %d bytes of Go heap; its file is %d bytes (limit %d)", fx.name, got, len(file), limit)
		}
		if ss.StoreStack() != "layout" {
			t.Fatalf("a mapped %s shard serves %q", fx.name, ss.StoreStack())
		}
	}
}

// TestShardServerSurvivesConcurrentConnections: a shard opened from a file
// serves its mapping bare, with no lock — the layout counts retrievals
// atomically and checks each block once — while four connections drain it at
// once. Run with -race.
func TestShardServerSurvivesConcurrentConnections(t *testing.T) {
	file, _ := savedTemperature(t)
	db, err := LoadDatabase(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenLayout(savedFile(t, "db.wvls", file))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = mapped.Close() })
	ss, err := mapped.NewShardServer(0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan := representationPlan(t, db)
	want := db.Exact(plan)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = ss.Serve(ln) }()
	t.Cleanup(func() { _ = ss.Close() })
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		// One coordinator each: its own connection pool, so four sockets.
		ddb, err := OpenDistributed([]string{ln.Addr().String()}, DistOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ddb.Close() })
		wg.Add(1)
		go func() {
			defer wg.Done()
			run := ddb.NewRun(plan, SSE())
			for !run.Done() {
				if _, err := run.StepBatchCtx(context.Background(), 64); err != nil {
					t.Error(err)
					return
				}
			}
			for q, got := range run.Estimates() {
				if math.Abs(got-want[q]) > 1e-6*(1+math.Abs(want[q])) {
					t.Errorf("query %d: %v through the shard, %v locally", q, got, want[q])
				}
			}
		}()
	}
	wg.Wait()
	if ss.Requests() == 0 {
		t.Fatal("the shard served nothing")
	}
}
