package repro

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"
)

// mvccFixture builds an MVCC database with a deterministic dataset and a
// query batch over it.
func mvccFixture(t *testing.T, cfg MVCCConfig) (*Database, *Plan, Batch) {
	t.Helper()
	schema, err := NewSchema([]string{"x", "y"}, []int{32, 32})
	if err != nil {
		t.Fatal(err)
	}
	dist := UniformData(schema, 2000, 17)
	db, err := NewDatabase(dist, Db4)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnableMVCC(cfg); err != nil {
		t.Fatal(err)
	}
	batch, err := ParseBatch(schema, `
		COUNT() WHERE x <= 20;
		COUNT() WHERE y >= 5 AND y <= 28;
		COUNT() WHERE x >= 10 AND y <= 15
	`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	return db, plan, batch
}

// randomBatches builds n write batches of size tuples each, deterministic.
func randomBatches(db *Database, n, size int, seed int64) []*WriteBatch {
	rng := rand.New(rand.NewSource(seed))
	sizes := db.Schema().Sizes
	out := make([]*WriteBatch, n)
	for i := range out {
		b := NewWriteBatch()
		for j := 0; j < size; j++ {
			b.Add([]int{rng.Intn(sizes[0]), rng.Intn(sizes[1])}, 1)
		}
		out[i] = b
	}
	return out
}

// TestMVCCDrainBitStableUnderApplies is the tentpole acceptance criterion: a
// progressive drain started before a 10k-tuple update burst must produce, at
// every intermediate step, estimates bit-identical (==) to the same drain
// replayed against the pinned pre-burst snapshot — concurrent writes cannot
// tear a running drain.
func TestMVCCDrainBitStableUnderApplies(t *testing.T) {
	db, plan, _ := mvccFixture(t, MVCCConfig{})
	snap, err := db.Snapshot() // pin the pre-burst state for the replay
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()

	// 20 batches x 500 tuples = 10k updates landing mid-drain.
	batches := randomBatches(db, 20, 500, 23)
	run := db.NewRun(plan, SSE())
	applied := 0
	var estimates [][]float64
	for !run.Done() {
		stepOne(run)
		estimates = append(estimates, append([]float64(nil), run.Estimates()...))
		// Interleave the burst through the whole drain.
		if applied < len(batches) && run.Retrieved()%7 == 0 {
			if _, err := db.Apply(context.Background(), batches[applied]); err != nil {
				t.Fatalf("Apply mid-drain: %v", err)
			}
			applied++
		}
	}
	for ; applied < len(batches); applied++ {
		if _, err := db.Apply(context.Background(), batches[applied]); err != nil {
			t.Fatalf("Apply: %v", err)
		}
	}
	if db.Version() != Version(len(batches)) {
		t.Fatalf("head at version %d after %d applies", db.Version(), len(batches))
	}

	// Replay the identical drain against the pinned snapshot: every step must
	// match bit for bit.
	replay := snap.NewRun(plan, SSE())
	for step := 0; !replay.Done(); step++ {
		stepOne(replay)
		want := replay.Estimates()
		got := estimates[step]
		for q := range want {
			if got[q] != want[q] {
				t.Fatalf("step %d query %d: live drain %v != pinned replay %v (must be bit-identical)",
					step, q, got[q], want[q])
			}
		}
	}
	if int64(len(estimates)) != int64(replay.Retrieved()) {
		t.Fatalf("live drain took %d steps, replay %d", len(estimates), replay.Retrieved())
	}

	// The head, by contrast, must have genuinely moved.
	headPlanExact := db.Exact(plan)
	snapExact := snap.Exact(plan)
	moved := false
	for q := range headPlanExact {
		if headPlanExact[q] != snapExact[q] {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("10k inserts did not change any head estimate; isolation test is vacuous")
	}
}

// TestMVCCApplyMatchesNonMVCC checks write-path parity: batches applied to
// an MVCC database answer as the bulk transform of the same distribution
// plus the applied tuples, and the bookkeeping agrees.
func TestMVCCApplyMatchesNonMVCC(t *testing.T) {
	schema, err := NewSchema([]string{"x", "y"}, []int{32, 32})
	if err != nil {
		t.Fatal(err)
	}
	mdb, err := NewDatabase(UniformData(schema, 1000, 5), Db4)
	if err != nil {
		t.Fatal(err)
	}
	if err := mdb.EnableMVCC(MVCCConfig{}); err != nil {
		t.Fatal(err)
	}
	dist := UniformData(schema, 1000, 5)
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 5; i++ {
		b := NewWriteBatch()
		for j := 0; j < 200; j++ {
			coords := []int{rng.Intn(32), rng.Intn(32)}
			b.Add(coords, 1)
			dist.AddTuple(coords)
		}
		if _, err := mdb.Apply(context.Background(), b); err != nil {
			t.Fatal(err)
		}
	}
	pdb, err := NewDatabase(dist, Db4)
	if err != nil {
		t.Fatal(err)
	}
	if v := mdb.Version(); v != 5 {
		t.Fatalf("version %d after 5 applies", v)
	}
	if mc, pc := mdb.TupleCount(), pdb.TupleCount(); mc != pc {
		t.Fatalf("tuple counts diverged: mvcc %d, bulk %d", mc, pc)
	}
	batch, err := ParseBatch(schema, `COUNT() WHERE x <= 15; COUNT() WHERE y >= 8`)
	if err != nil {
		t.Fatal(err)
	}
	mplan, err := mdb.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	pplan, err := pdb.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	mg, pg := mdb.Exact(mplan), pdb.Exact(pplan)
	for q := range mg {
		if diff := math.Abs(mg[q] - pg[q]); diff > 1e-9*(1+math.Abs(pg[q])) {
			t.Fatalf("query %d: mvcc %v, bulk %v", q, mg[q], pg[q])
		}
	}
}

// TestInsertDeleteRouteThroughApply checks the redesigned single-tuple API:
// Insert/Delete bump the version like any batch and Delete undoes Insert.
func TestInsertDeleteRouteThroughApply(t *testing.T) {
	db, plan, _ := mvccFixture(t, MVCCConfig{})
	before := db.Exact(plan)
	count := db.TupleCount()

	if err := db.Insert([]int{3, 3}); err != nil {
		t.Fatal(err)
	}
	if db.Version() != 1 || db.TupleCount() != count+1 {
		t.Fatalf("after Insert: version %d count %d, want 1 and %d", db.Version(), db.TupleCount(), count+1)
	}
	if err := db.Delete([]int{3, 3}); err != nil {
		t.Fatal(err)
	}
	if db.Version() != 2 || db.TupleCount() != count {
		t.Fatalf("after Delete: version %d count %d, want 2 and %d", db.Version(), db.TupleCount(), count)
	}
	after := db.Exact(plan)
	for q := range after {
		if diff := math.Abs(after[q] - before[q]); diff > 1e-9*(1+math.Abs(before[q])) {
			t.Fatalf("query %d: delete did not undo insert (%v vs %v)", q, after[q], before[q])
		}
	}
}

// TestErrReadOnlyTyped: every view without MVCC — built, sparse, empty,
// loaded, mapped and a coordinator — is an immutable version 0. Apply,
// Insert, Delete and IngestCSV fail with an error matching
// errors.Is(err, ErrReadOnly) that keeps the "read-only" substring older
// callers grep for, and change neither the version, the tuple count nor the
// answers. Every view but the coordinator names the way to write,
// EnableMVCC, and takes writes after it; a coordinator refuses EnableMVCC.
func TestErrReadOnlyTyped(t *testing.T) {
	db, plan, path := layoutFixture(t)
	schema := db.Schema()
	if err := db.SaveLayout(path, LayoutOptions{}); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sd := NewSparseDistribution(schema)
	sd.AddTuple([]int{1, 2, 3})
	sparse, err := NewSparseDatabase(sd, Db4)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := NewEmptyDatabase(schema, Db4)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDatabase(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenLayout(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mapped.Close() }()
	ss, err := mapped.NewShardServer(0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	views := map[string]*Database{
		"built": db, "sparse": sparse, "empty": empty, "loaded": loaded,
		"mapped": mapped, "coordinator": serveShards(t, []*ShardServer{ss}),
	}
	ctx := context.Background()
	for name, v := range views {
		before, count := v.Exact(plan), v.TupleCount()
		_, applyErr := v.Apply(ctx, NewWriteBatch().Add([]int{1, 1, 1}, 1))
		_, _, _, csvErr := v.IngestCSV(ctx, strings.NewReader("x,y,m\n1,1,1\n"), 0)
		for op, err := range map[string]error{
			"Apply":     applyErr,
			"Insert":    v.Insert([]int{1, 1, 1}),
			"Delete":    v.Delete([]int{1, 1, 1}),
			"IngestCSV": csvErr,
		} {
			if !errors.Is(err, ErrReadOnly) || !strings.Contains(err.Error(), "read-only") {
				t.Errorf("%s: %s = %v, want errors.Is ErrReadOnly saying read-only", name, op, err)
			}
		}
		if v.Version() != 0 || v.TupleCount() != count {
			t.Errorf("%s: refused writes moved version %d, tuples %d → %d", name, v.Version(), count, v.TupleCount())
		}
		for q, got := range v.Exact(plan) {
			if got != before[q] {
				t.Errorf("%s: query %d answers %v after refused writes, %v before", name, q, got, before[q])
			}
		}
		if name == "coordinator" {
			if err := v.EnableMVCC(MVCCConfig{}); !errors.Is(err, ErrReadOnly) {
				t.Errorf("EnableMVCC on a coordinator = %v, want errors.Is ErrReadOnly", err)
			}
			continue
		}
		if !strings.Contains(fmt.Sprint(applyErr), "EnableMVCC") {
			t.Errorf("%s: the EnableMVCC hint lost from %q", name, applyErr)
		}
		if err := v.EnableMVCC(MVCCConfig{}); err != nil {
			t.Fatalf("%s: EnableMVCC = %v", name, err)
		}
		if err := v.Insert([]int{1, 1, 1}); err != nil {
			t.Errorf("%s: Insert under MVCC: %v", name, err)
		}
	}
}

// TestTheorem1BoundsOnDegradedSnapshotDrain checks that robustness composes
// with MVCC: a fault-injected drain against a pinned snapshot degrades, and
// every estimate stays within the Theorem-1 worst-case bound computed from
// the snapshot's own coefficient mass.
func TestTheorem1BoundsOnDegradedSnapshotDrain(t *testing.T) {
	db, plan, _ := mvccFixture(t, MVCCConfig{})
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	exact := snap.Exact(plan)
	mass, err := snap.CoefficientMass()
	if err != nil {
		t.Fatal(err)
	}

	// Writes land after the pin, then the base store starts faulting.
	for _, b := range randomBatches(db, 3, 100, 99) {
		if _, err := db.Apply(context.Background(), b); err != nil {
			t.Fatal(err)
		}
	}
	db.SetStack(Stack{Fault: &FaultConfig{ErrorRate: 0.25, Seed: 41}})
	// A write whose merge reads hit the faulty base fails without publishing.
	headBefore := db.Version()
	if _, err := db.Apply(context.Background(), randomBatches(db, 1, 200, 7)[0]); err == nil {
		t.Log("apply under 25% faults happened to succeed; atomicity check skipped")
	} else if db.Version() != headBefore {
		t.Fatalf("failed Apply moved the head %d → %d", headBefore, db.Version())
	}
	run := snap.NewRun(plan, SSE())
	if err := run.RunToCompletionCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !run.Degraded() {
		t.Skip("fault injection produced no skips at this seed; bound check vacuous")
	}
	for q, est := range run.Estimates() {
		bound := run.QueryErrorBound(q, mass)
		if actual := math.Abs(est - exact[q]); actual > bound*(1+1e-9)+1e-12 {
			t.Fatalf("query %d: error %g exceeds Theorem-1 bound %g", q, actual, bound)
		}
	}
}

// TestSessionPinsVersion checks that a session binds to the head snapshot at
// creation: later writes are invisible to it, and a new session sees them.
func TestSessionPinsVersion(t *testing.T) {
	db, plan, _ := mvccFixture(t, MVCCConfig{})
	sess := db.NewSession()
	before := sess.Exact(plan)

	for _, b := range randomBatches(db, 4, 250, 31) {
		if _, err := db.Apply(context.Background(), b); err != nil {
			t.Fatal(err)
		}
	}
	after := sess.Exact(plan)
	for q := range after {
		if after[q] != before[q] {
			t.Fatalf("query %d: session answer moved %v → %v after applies", q, before[q], after[q])
		}
	}
	fresh := db.NewSession()
	head := db.Exact(plan)
	got := fresh.Exact(plan)
	for q := range got {
		if got[q] != head[q] {
			t.Fatalf("query %d: fresh session %v != head %v", q, got[q], head[q])
		}
	}
}

// TestSnapshotAtRetention drives the version-addressed read API through the
// facade: old versions stay addressable inside the window, age out beyond
// it, and a released pin stops protecting its version.
func TestSnapshotAtRetention(t *testing.T) {
	db, plan, _ := mvccFixture(t, MVCCConfig{Retain: 3, DisableAutoCompact: true})
	baseCount := db.TupleCount()
	for _, b := range randomBatches(db, 8, 50, 3) {
		if _, err := db.Apply(context.Background(), b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.SnapshotAt(0); !errors.Is(err, ErrVersionNotRetained) {
		t.Fatalf("SnapshotAt(0) after 8 applies with Retain=3: %v, want ErrVersionNotRetained", err)
	}
	sn, err := db.SnapshotAt(6)
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Release()
	if sn.Version() != 6 {
		t.Fatalf("pinned version %d, want 6", sn.Version())
	}
	if want := baseCount + 6*50; sn.TupleCount() != want {
		t.Fatalf("snapshot tuple count %d, want %d", sn.TupleCount(), want)
	}
	// The snapshot keeps evaluating even after compaction rebuilds the base.
	pre := sn.Exact(plan)
	if err := db.CompactNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	post := sn.Exact(plan)
	for q := range pre {
		if pre[q] != post[q] {
			t.Fatalf("query %d: snapshot answer moved across compaction %v → %v", q, pre[q], post[q])
		}
	}
}

// TestCompactionPreservesFacadeAnswers checks end-to-end compaction
// equivalence through the public API, including the coalescing and retry
// layers re-wrapped over the compacted base.
func TestCompactionPreservesFacadeAnswers(t *testing.T) {
	db, plan, _ := mvccFixture(t, MVCCConfig{DisableAutoCompact: true})
	db.SetStack(Stack{Coalesce: true})
	for _, b := range randomBatches(db, 6, 300, 13) {
		if _, err := db.Apply(context.Background(), b); err != nil {
			t.Fatal(err)
		}
	}
	before := db.Exact(plan)
	mass0, err := db.CoefficientMass()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CompactNow(context.Background()); err != nil {
		t.Fatal(err)
	}
	after := db.Exact(plan)
	for q := range before {
		if before[q] != after[q] {
			t.Fatalf("query %d: compaction changed the answer %v → %v", q, before[q], after[q])
		}
	}
	mass1, err := db.CoefficientMass()
	if err != nil {
		t.Fatal(err)
	}
	if mass0 != mass1 {
		t.Fatalf("compaction changed the mass %v → %v", mass0, mass1)
	}
	stats, ok := db.MVCCStats()
	if !ok || stats.Compactions != 1 || stats.Layers != 0 {
		t.Fatalf("stats after compaction: %+v", stats)
	}
	// The coalescing layer was rebuilt over the new base and still reports.
	if _, ok := db.CoalescingStats(); !ok {
		t.Fatal("CoalescingStats lost after compaction")
	}
}

// TestCoalescingStatsNeverRunBackwards: the coalescing counters and the
// retrieval count are the database's, so the rebuilds that replace the
// layers — every compaction's new base chain, a new fault schedule and its
// removal — leave them where they were: a scraper of the server's read
// counters would see counts that started over with a layer as a reset.
// Every read here, Apply's too, crosses the coalescer, so the retrieval
// count is what it fetched.
func TestCoalescingStatsNeverRunBackwards(t *testing.T) {
	db, plan, _ := mvccFixture(t, MVCCConfig{DisableAutoCompact: true})
	db.SetStack(Stack{
		Fault:    &FaultConfig{ErrorEvery: 3},
		Retry:    &RetryConfig{MaxAttempts: 8, BaseDelay: time.Microsecond}, // an Apply reads through the chain too
		Coalesce: true,
	})
	ctx := context.Background()
	var last CoalesceStats
	var lastRetrievals int64
	drain := func(after string) {
		t.Helper()
		run := db.NewRun(plan, SSE())
		for !run.Done() {
			if _, err := run.StepBatchCtx(ctx, 64); err != nil {
				t.Fatal(err)
			}
		}
		st, ok := db.CoalescingStats()
		if !ok || st.Requests != st.Fetched+st.Coalesced {
			t.Fatalf("%s: stats %+v (ok %v) break requests = fetched + coalesced", after, st, ok)
		}
		if st.Requests < last.Requests+int64(plan.DistinctCoefficients()) || st.Fetched < last.Fetched || st.Coalesced < last.Coalesced {
			t.Fatalf("%s: stats ran backwards: %+v → %+v", after, last, st)
		}
		r := db.Retrievals()
		if r < lastRetrievals || r != st.Fetched {
			t.Fatalf("%s: retrievals %d → %d, the coalescer fetched %d", after, lastRetrievals, r, st.Fetched)
		}
		last, lastRetrievals = st, r
	}
	drain("open")
	for i, b := range randomBatches(db, 8, 100, 29) {
		if _, err := db.Apply(ctx, b); err != nil {
			t.Fatal(err)
		}
		if err := db.CompactNow(ctx); err != nil {
			t.Fatal(err)
		}
		drain(fmt.Sprintf("compaction %d", i+1))
	}
	stack := db.Stack()
	stack.Fault = &FaultConfig{ErrorEvery: 2}
	db.SetStack(stack)
	drain("new fault schedule")
	stack.Fault = nil
	db.SetStack(stack)
	drain("faults removed")
}

// TestMVCCSaveRoundTrip checks that Save pins one consistent version and the
// reloaded database answers identically.
func TestMVCCSaveRoundTrip(t *testing.T) {
	db, plan, batch := mvccFixture(t, MVCCConfig{})
	for _, b := range randomBatches(db, 3, 100, 57) {
		if _, err := db.Apply(context.Background(), b); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	re, err := LoadDatabase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if re.TupleCount() != db.TupleCount() {
		t.Fatalf("reloaded tuple count %d, want %d", re.TupleCount(), db.TupleCount())
	}
	rplan, err := re.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	want, got := db.Exact(plan), re.Exact(rplan)
	for q := range want {
		if diff := math.Abs(want[q] - got[q]); diff > 1e-9*(1+math.Abs(want[q])) {
			t.Fatalf("query %d: reloaded %v, want %v", q, got[q], want[q])
		}
	}
}

// TestIngestCSVFacade checks the streaming CSV write path: windows are
// required, rows quantize onto the schema bins, batches publish versions,
// and unparsable rows are skipped not fatal.
func TestIngestCSVFacade(t *testing.T) {
	schema, err := NewSchema([]string{"x", "y"}, []int{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewEmptyDatabase(schema, Haar)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.EnableMVCC(MVCCConfig{}); err != nil {
		t.Fatal(err)
	}
	csv := "x,y\n0.1,0.9\n0.2,0.3\nbogus,0.5\n0.7,0.7\n"
	if _, _, _, err := db.IngestCSV(context.Background(), strings.NewReader(csv), 2); err == nil {
		t.Fatal("IngestCSV without windows must fail")
	}
	if err := db.SetWindows([][2]float64{{0, 1}, {0, 1}}); err != nil {
		t.Fatal(err)
	}
	rows, skipped, v, err := db.IngestCSV(context.Background(), strings.NewReader(csv), 2)
	if err != nil {
		t.Fatal(err)
	}
	if rows != 3 || skipped != 1 {
		t.Fatalf("rows=%d skipped=%d, want 3 and 1", rows, skipped)
	}
	// 3 rows at batch size 2 → 2 batches → 2 versions.
	if v != 2 || db.Version() != 2 {
		t.Fatalf("last version %d (head %d), want 2", v, db.Version())
	}
	if db.TupleCount() != 3 {
		t.Fatalf("tuple count %d, want 3", db.TupleCount())
	}
	batch, err := ParseBatch(schema, `COUNT() WHERE x <= 7`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	if got := db.Exact(plan)[0]; math.Abs(got-3) > 1e-9 {
		t.Fatalf("COUNT() over everything = %v, want 3", got)
	}
}
