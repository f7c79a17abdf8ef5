package repro

// Benchmarks behind BENCH_dist.json: the progressive drain through the
// distributed coordinator (4 TCP shards over loopback) against the same
// drain on the single-node store. Loopback on one host measures protocol
// and fan-out overhead only — no real network latency, and shard servers
// compete with the coordinator for the same CPUs — so the numbers bound the
// wire tax, not the scale-out win; see BENCH_dist.json for the honesty
// notes.

import (
	"context"
	"net"
	"sync"
	"testing"
)

type distBenchFixture struct {
	db    *Database
	ddb   *Database
	plan  *Plan
	dplan *Plan
}

var (
	distBenchOnce sync.Once
	distBench     distBenchFixture
	distBenchErr  error
)

// distBenchSetup builds the shared fixture once: a 128x128 view, its
// 64-query plan, four loopback shard servers and the assembled distributed
// database. Servers live for the whole `go test` process.
func distBenchSetup() (distBenchFixture, error) {
	distBenchOnce.Do(func() {
		fail := func(err error) { distBenchErr = err }
		schema, err := NewSchema([]string{"x", "y"}, []int{128, 128})
		if err != nil {
			fail(err)
			return
		}
		data := UniformData(schema, 8000, 29)
		db, err := NewDatabase(data, Db4)
		if err != nil {
			fail(err)
			return
		}
		ranges, err := RandomPartition(schema, 64, 31)
		if err != nil {
			fail(err)
			return
		}
		batch, err := SumBatch(schema, ranges, "y")
		if err != nil {
			fail(err)
			return
		}
		plan, err := db.Plan(batch)
		if err != nil {
			fail(err)
			return
		}
		const shards = 4
		addrs := make([]string, shards)
		for i := 0; i < shards; i++ {
			ss, err := db.NewShardServer(i, shards, nil)
			if err != nil {
				fail(err)
				return
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				fail(err)
				return
			}
			go func() { _ = ss.Serve(ln) }()
			addrs[i] = ln.Addr().String()
		}
		ddb, err := OpenDistributed(addrs, DistOptions{})
		if err != nil {
			fail(err)
			return
		}
		dplan, err := ddb.Plan(batch)
		if err != nil {
			fail(err)
			return
		}
		distBench = distBenchFixture{db: db, ddb: ddb, plan: plan, dplan: dplan}
	})
	return distBench, distBenchErr
}

// drainSliced drains one progressive run in scheduler-sized slices — the
// shape of the server's execution, so the coordinator sees realistic
// batch sizes.
func drainSliced(b *testing.B, db *Database, plan *Plan, slice int) {
	b.Helper()
	run := db.NewRun(plan, SSE())
	ctx := context.Background()
	for !run.Done() {
		if _, err := run.StepBatchCtx(ctx, slice); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistDrain compares a full progressive drain on the local store
// against the identical drain fanned out over four loopback TCP shards.
func BenchmarkDistDrain(b *testing.B) {
	fx, err := distBenchSetup()
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name  string
		db    *Database
		plan  *Plan
		slice int
	}{
		{"single-node/slice=512", fx.db, fx.plan, 512},
		{"coordinator-4shards/slice=512", fx.ddb, fx.dplan, 512},
		{"single-node/slice=4096", fx.db, fx.plan, 4096},
		{"coordinator-4shards/slice=4096", fx.ddb, fx.dplan, 4096},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				drainSliced(b, bc.db, bc.plan, bc.slice)
			}
		})
	}
}

// BenchmarkDistExact compares exact evaluation (ExactCtx — chunked
// BatchGetCtx calls on GOMAXPROCS workers) local vs distributed. The per-key
// variant BENCH_dist.json records (one wire round-trip per coefficient, ~120×
// slower) no longer exists to measure: every exact pass is batched.
func BenchmarkDistExact(b *testing.B) {
	fx, err := distBenchSetup()
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, bc := range []struct {
		name string
		db   *Database
		plan *Plan
	}{
		{"batched/single-node", fx.db, fx.plan},
		{"batched/coordinator-4shards", fx.ddb, fx.dplan},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.db.ExactCtx(ctx, bc.plan); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
