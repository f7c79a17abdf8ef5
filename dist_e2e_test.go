package repro

// End-to-end tests of the distributed evaluation tier through the public
// facade: a database partitioned onto real TCP shard servers, reassembled by
// OpenDistributed, and drained progressively through the coordinator. The
// zero-fault drain must be value-identical to the single-node run (the
// partition and the wire preserve coefficient bits, the schedule is the
// plan's, so every intermediate estimate matches exactly); killing a shard
// mid-run must degrade the run — skipped coefficients, Theorem-1-valid
// bounds — not fail it.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"strings"
	"testing"
)

// distFixture builds a database whose plan touches all four shards, starts
// `count` shard servers over loopback listeners, and opens the distributed
// view. The returned servers can be killed individually to simulate loss.
func distFixture(t *testing.T, count int) (db *Database, ddb *Database, plan *Plan, dplan *Plan, servers []*ShardServer) {
	t.Helper()
	schema, err := NewSchema([]string{"x", "y"}, []int{64, 64})
	if err != nil {
		t.Fatal(err)
	}
	data := UniformData(schema, 900, 17)
	db, err = NewDatabase(data, Db4)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SetWindows([][2]float64{{0, 640}, {-5, 5}}); err != nil {
		t.Fatal(err)
	}
	batch, err := ParseBatch(schema, `
		COUNT() WHERE x <= 40;
		SUM(y) WHERE x <= 63;
		COUNT() WHERE y BETWEEN 10 AND 50;
		SUM(x) WHERE y <= 31
	`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err = db.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}

	addrs := make([]string, count)
	servers = make([]*ShardServer, count)
	for i := 0; i < count; i++ {
		ss, err := db.NewShardServer(i, count, nil)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = ss.Serve(ln) }()
		t.Cleanup(func() { _ = ss.Close() })
		addrs[i] = ln.Addr().String()
		servers[i] = ss
	}
	ddb, err = OpenDistributed(addrs, DistOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ddb.Close() })
	dplan, err = ddb.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	return db, ddb, plan, dplan, servers
}

func TestDistributedDrainValueIdenticalToSingleNode(t *testing.T) {
	db, ddb, plan, dplan, servers := distFixture(t, 4)

	// The assembled view must mirror the source database's identity.
	if !ddb.Distributed() || db.Distributed() {
		t.Fatal("Distributed() mislabels the views")
	}
	if !ddb.Schema().Equal(db.Schema()) {
		t.Fatal("distributed schema differs")
	}
	if ddb.Filter().Name != db.Filter().Name || ddb.TupleCount() != db.TupleCount() {
		t.Fatalf("metadata differs: filter %s/%s tuples %d/%d",
			ddb.Filter().Name, db.Filter().Name, ddb.TupleCount(), db.TupleCount())
	}
	if w := ddb.Windows(); len(w) != 2 || w[0] != [2]float64{0, 640} {
		t.Fatalf("windows not carried through shard metadata: %v", w)
	}
	// Every shard reports the whole view, and the coordinator takes its count
	// and the coefficient mass behind Theorem-1 bounds unchanged: both are
	// the local database's, to the bit.
	for i, ss := range servers {
		if ss.Nonzero() != int64(db.NonzeroCoefficients()) {
			t.Fatalf("shard %d reports %d coefficients, the source holds %d", i, ss.Nonzero(), db.NonzeroCoefficients())
		}
	}
	if ddb.NonzeroCoefficients() != db.NonzeroCoefficients() {
		t.Fatalf("coordinator counts %d coefficients, the source holds %d", ddb.NonzeroCoefficients(), db.NonzeroCoefficients())
	}
	localMass, err := db.CoefficientMass()
	if err != nil {
		t.Fatal(err)
	}
	distMass, err := ddb.CoefficientMass()
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(localMass) != math.Float64bits(distMass) {
		t.Fatalf("mass changed across the wire: local %v, coordinator %v", localMass, distMass)
	}

	// Progressive drain in lockstep: same plan schedule, same slice sizes —
	// every intermediate estimate and every bound must match exactly
	// (identical coefficient bits accumulated in identical order).
	ctx := context.Background()
	lrun := db.NewRun(plan, SSE())
	drun := ddb.NewRun(dplan, SSE())
	const slice = 64
	for step := 0; !lrun.Done(); step++ {
		ln, err := lrun.StepBatchCtx(ctx, slice)
		if err != nil {
			t.Fatal(err)
		}
		dn, err := drun.StepBatchCtx(ctx, slice)
		if err != nil {
			t.Fatal(err)
		}
		if ln != dn || lrun.Retrieved() != drun.Retrieved() {
			t.Fatalf("step %d: local advanced %d to %d, distributed %d to %d",
				step, ln, lrun.Retrieved(), dn, drun.Retrieved())
		}
		le, de := lrun.Estimates(), drun.Estimates()
		for q := range le {
			if math.Float64bits(le[q]) != math.Float64bits(de[q]) {
				t.Fatalf("step %d query %d: local %g, distributed %g (bits differ)", step, q, le[q], de[q])
			}
		}
		if lb, dbound := lrun.WorstCaseBound(localMass), drun.WorstCaseBound(distMass); lb != dbound {
			t.Fatalf("step %d: bounds differ: local %g, coordinator %g", step, lb, dbound)
		}
	}
	if !drun.Done() || drun.Degraded() {
		t.Fatalf("distributed drain: done=%v degraded=%v after local completion", drun.Done(), drun.Degraded())
	}

	// Completed drains equal the exact evaluation.
	exact := db.Exact(plan)
	for q, want := range exact {
		if got := drun.Estimates()[q]; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("final query %d: distributed %g, exact %g", q, got, want)
		}
	}

	// Every shard served traffic.
	health, ok := ddb.ShardHealth()
	if !ok || len(health) != 4 {
		t.Fatalf("ShardHealth: ok=%v len=%d", ok, len(health))
	}
	for _, h := range health {
		if h.Requests == 0 || h.Errors != 0 {
			t.Fatalf("shard %d ledger after clean drain: %+v", h.Shard, h)
		}
	}
}

func TestDistributedShardLossDegradesWithValidBounds(t *testing.T) {
	db, ddb, plan, dplan, servers := distFixture(t, 4)
	ctx := context.Background()
	exact := db.Exact(plan)
	mass, err := ddb.CoefficientMass()
	if err != nil {
		t.Fatal(err)
	}

	run := ddb.NewRun(dplan, SSE())
	// Drain a third of the schedule healthy, then kill one shard mid-run.
	third := dplan.DistinctCoefficients() / 3
	if _, err := run.StepBatchCtx(ctx, third); err != nil {
		t.Fatal(err)
	}
	if err := servers[1].Close(); err != nil {
		t.Fatal(err)
	}
	if err := run.RunToCompletionCtx(ctx); err != nil {
		t.Fatalf("shard loss must degrade the run, not fail it: %v", err)
	}
	if !run.Done() || !run.Degraded() || run.SkippedCount() == 0 {
		t.Fatalf("after shard loss: done=%v degraded=%v skipped=%d",
			run.Done(), run.Degraded(), run.SkippedCount())
	}
	if run.SkippedImportance() <= 0 {
		t.Fatal("skipped importance must be positive after skips")
	}

	// Theorem-1 validity under degradation: each query's residual bound must
	// cover its actual error against the exact answer.
	bounds := run.QueryErrorBounds(mass)
	est := run.Estimates()
	for q := range exact {
		errAbs := math.Abs(est[q] - exact[q])
		if errAbs > bounds[q]*(1+1e-9)+1e-9 {
			t.Fatalf("query %d: error %g exceeds bound %g after shard loss", q, errAbs, bounds[q])
		}
	}

	// The dead shard's ledger records the failure; live shards stay clean.
	health, _ := ddb.ShardHealth()
	if health[1].Errors == 0 || health[1].DegradedKeys == 0 || health[1].LastError == "" {
		t.Fatalf("dead shard ledger unmarked: %+v", health[1])
	}
	deg := int64(0)
	for _, h := range health {
		deg += h.DegradedKeys
	}
	if deg != int64(run.SkippedCount()) {
		t.Fatalf("coordinator degraded %d keys, run skipped %d", deg, run.SkippedCount())
	}

	// The distributed view is read-only.
	if err := ddb.Insert([]int{1, 1}); err == nil {
		t.Fatal("Insert on a distributed database must fail")
	}
	if err := ddb.Delete([]int{1, 1}); err == nil {
		t.Fatal("Delete on a distributed database must fail")
	}
}

func TestOpenDistributedRejectsMisconfiguration(t *testing.T) {
	// Shard count that is not a power of two.
	if _, err := OpenDistributed([]string{"a", "b", "c"}, DistOptions{}); err == nil {
		t.Fatal("3 shards accepted")
	}
	// Unreachable shard: fail at open time, not at first query.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()
	if _, err := OpenDistributed([]string{addr}, DistOptions{}); err == nil {
		t.Fatal("dead shard accepted at open time")
	}

	// Shards built with mismatched counts: the dialed set must refuse to
	// assemble (each shard declares its deployment shape in its metadata).
	schema, err := NewSchema([]string{"x"}, []int{64})
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDatabase(UniformData(schema, 50, 3), Haar)
	if err != nil {
		t.Fatal(err)
	}
	addrs := make([]string, 2)
	for i := 0; i < 2; i++ {
		// Both servers believe they are shard 0 of a 4-shard deployment.
		ss, err := db.NewShardServer(0, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = ss.Serve(l) }()
		t.Cleanup(func() { _ = ss.Close() })
		addrs[i] = l.Addr().String()
	}
	if _, err := OpenDistributed(addrs, DistOptions{}); err == nil {
		t.Fatal("mismatched shard metadata accepted")
	}

	// NewShardServer validation surfaces partition preconditions.
	if _, err := db.NewShardServer(0, 3, nil); err == nil {
		t.Fatal("non-power-of-two shard count accepted")
	}
	if _, err := db.NewShardServer(2, 2, nil); err == nil {
		t.Fatal("out-of-range shard index accepted")
	}
}

// TestOpenDistributedRefusesMixedViews: two files of one schema, filter and
// tuple count but different data, one shard opened from each, are two views;
// the coordinator refuses to assemble them and names the shard that differs.
// Shards of one file assemble.
func TestOpenDistributedRefusesMixedViews(t *testing.T) {
	schema, err := NewSchema([]string{"x", "y"}, []int{64, 64})
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 2)
	for i := range paths {
		db, err := NewDatabase(UniformData(schema, 400, int64(7+i)), Db4)
		if err != nil {
			t.Fatal(err)
		}
		var file bytes.Buffer
		if err := db.Save(&file); err != nil {
			t.Fatal(err)
		}
		paths[i] = savedFile(t, fmt.Sprintf("view%d.wvls", i), file.Bytes())
	}
	assemble := func(files ...string) (*Database, error) {
		addrs := make([]string, len(files))
		for i, path := range files {
			db, err := OpenLayout(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = db.Close() })
			ss, err := db.NewShardServer(i, len(files), nil)
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go func() { _ = ss.Serve(ln) }()
			t.Cleanup(func() { _ = ss.Close() })
			addrs[i] = ln.Addr().String()
		}
		return OpenDistributed(addrs, DistOptions{})
	}
	same, err := assemble(paths[0], paths[0])
	if err != nil {
		t.Fatalf("two shards of one file refused: %v", err)
	}
	_ = same.Close()
	if ddb, err := assemble(paths[0], paths[1]); err == nil {
		_ = ddb.Close()
		t.Fatal("shards of two different files assembled into one view")
	} else if !strings.Contains(err.Error(), "shard 1 ") {
		t.Fatalf("the refusal does not name shard 1: %v", err)
	}
}
