package repro

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/storage/layout"
)

func layoutFixture(t *testing.T) (*Database, *Plan, string) {
	t.Helper()
	schema, err := NewSchema([]string{"x", "y", "m"}, []int{16, 16, 8})
	if err != nil {
		t.Fatal(err)
	}
	dist := UniformData(schema, 3000, 11)
	db, err := NewDatabase(dist, Db4)
	if err != nil {
		t.Fatal(err)
	}
	ranges, err := RandomPartition(schema, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := SumBatch(schema, ranges, "m")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.wvls")
	return db, plan, path
}

// TestLayoutDrainBitIdentity is the acceptance criterion: a progressive
// drain over the layout store produces estimates bit-identical (==) to the
// in-memory drain at every intermediate step, and the worst-case bounds
// agree because the persisted mass equals the enumerated mass.
func TestLayoutDrainBitIdentity(t *testing.T) {
	db, plan, path := layoutFixture(t)
	if _, err := db.SaveLayout(path, LayoutOptions{
		HotCount:  64,
		BlockSize: 32,
		Families:  []LayoutFamily{{Label: "sse", Plan: plan, Penalty: SSE()}},
	}); err != nil {
		t.Fatalf("SaveLayout: %v", err)
	}
	ldb, err := OpenLayout(path)
	if err != nil {
		t.Fatalf("OpenLayout: %v", err)
	}
	defer func() { _ = ldb.Close() }()

	if !ldb.LayoutBacked() || db.LayoutBacked() {
		t.Fatal("LayoutBacked misreports")
	}
	if ldb.TupleCount() != db.TupleCount() {
		t.Fatalf("TupleCount = %d, want %d", ldb.TupleCount(), db.TupleCount())
	}
	if ldb.NonzeroCoefficients() != db.NonzeroCoefficients() {
		t.Fatalf("NonzeroCoefficients = %d, want %d", ldb.NonzeroCoefficients(), db.NonzeroCoefficients())
	}
	memMass, err := db.CoefficientMass()
	if err != nil {
		t.Fatal(err)
	}
	layoutMass, err := ldb.CoefficientMass()
	if err != nil {
		t.Fatal(err)
	}
	// The layout persists the mass summed in ascending-key order; the hash
	// store enumerates in map order. Float addition is order-sensitive, so
	// equality here is up to summation order, not bitwise.
	if math.Abs(layoutMass-memMass) > 1e-12*memMass {
		t.Fatalf("CoefficientMass = %v, want %v", layoutMass, memMass)
	}

	// Schemas compare by value, so the original plan serves both databases.
	memRun := db.NewRun(plan, SSE())
	layoutRun := ldb.NewRun(plan, SSE())
	step := 0
	for !memRun.Done() {
		if layoutRun.Done() {
			t.Fatal("layout run finished early")
		}
		memRun.Step()
		layoutRun.Step()
		step++
		me, le := memRun.Estimates(), layoutRun.Estimates()
		for q := range me {
			if le[q] != me[q] {
				t.Fatalf("step %d query %d: layout %v != memory %v (must be bit-identical)", step, q, le[q], me[q])
			}
		}
		if lb, mb := layoutRun.WorstCaseBound(memMass), memRun.WorstCaseBound(memMass); lb != mb {
			t.Fatalf("step %d: worst-case bound %v != %v", step, lb, mb)
		}
	}
	if !layoutRun.Done() {
		t.Fatal("layout run not done when memory run is")
	}

	// Batched drain too — StepBatch is the server's stepping shape.
	memRun2 := db.NewRun(plan, SSE())
	layoutRun2 := ldb.NewRun(plan, SSE())
	for !memRun2.Done() {
		memRun2.StepBatch(7)
		layoutRun2.StepBatch(7)
		me, le := memRun2.Estimates(), layoutRun2.Estimates()
		for q := range me {
			if le[q] != me[q] {
				t.Fatalf("batched drain diverged at %d retrieved", memRun2.Retrieved())
			}
		}
	}

	// Exact evaluation matches bit-for-bit as well.
	me, le := db.Exact(plan), ldb.Exact(plan)
	for q := range me {
		if le[q] != me[q] {
			t.Fatalf("Exact query %d: %v != %v", q, le[q], me[q])
		}
	}

	// The recorded family must cover the hot region perfectly: the layout
	// was built from this exact schedule.
	stats, ok := ldb.LayoutStats()
	if !ok {
		t.Fatal("LayoutStats not available")
	}
	if stats.Dense {
		t.Fatal("a layout with families must be sparse")
	}
	if len(stats.Families) != 1 || stats.Families[0].Label != "sse" || stats.Families[0].HotCoverage != 1 {
		t.Fatalf("Families = %+v, want the sse family at coverage 1", stats.Families)
	}
	if stats.HotHits == 0 || stats.HintHits == 0 {
		t.Fatalf("stats = %+v: schedule-order drain must hit the hot tier and the sequential hint", stats)
	}
}

// TestLayoutDenseDrainBitIdentity is the acceptance criterion on the dense
// shape: with no families the fixture is written as an array, and a
// progressive drain over it is bit-identical (==) to the in-memory drain at
// every step, bounds included.
func TestLayoutDenseDrainBitIdentity(t *testing.T) {
	db, plan, path := layoutFixture(t)
	if _, err := db.SaveLayout(path, LayoutOptions{BlockSize: 64}); err != nil {
		t.Fatal(err)
	}
	ldb, err := OpenLayout(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ldb.Close() }()
	if stats, _ := ldb.LayoutStats(); !stats.Dense {
		t.Fatal("the fixture is dense enough for the dense shape")
	}
	mass, err := ldb.CoefficientMass()
	if err != nil {
		t.Fatal(err)
	}
	memRun, layoutRun := db.NewRun(plan, SSE()), ldb.NewRun(plan, SSE())
	for !memRun.Done() {
		memRun.StepBatch(5)
		layoutRun.StepBatch(5)
		me, le := memRun.Estimates(), layoutRun.Estimates()
		for q := range me {
			if le[q] != me[q] {
				t.Fatalf("%d retrieved, query %d: layout %v != memory %v", memRun.Retrieved(), q, le[q], me[q])
			}
		}
		if lb, mb := layoutRun.WorstCaseBound(mass), memRun.WorstCaseBound(mass); lb != mb {
			t.Fatalf("%d retrieved: worst-case bound %v != %v", memRun.Retrieved(), lb, mb)
		}
	}
	if !layoutRun.Done() {
		t.Fatal("layout run not done when memory run is")
	}
	me, le := db.Exact(plan), ldb.Exact(plan)
	for q := range me {
		if le[q] != me[q] {
			t.Fatalf("Exact query %d: %v != %v", q, le[q], me[q])
		}
	}
}

// TestLayoutReadOnly pins the mutation guards and stats plumbing.
func TestLayoutReadOnly(t *testing.T) {
	db, _, path := layoutFixture(t)
	if _, err := db.SaveLayout(path, LayoutOptions{}); err != nil {
		t.Fatal(err)
	}
	ldb, err := OpenLayout(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ldb.Close() }()
	if stats, _ := ldb.LayoutStats(); !stats.Dense {
		t.Fatal("the fixture is dense enough for the dense shape")
	}
	if err := ldb.Insert([]int{1, 1, 1}); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("Insert on layout db = %v, want read-only error", err)
	}
	if err := ldb.Delete([]int{1, 1, 1}); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("Delete on layout db = %v, want read-only error", err)
	}
	if _, ok := db.LayoutStats(); ok {
		t.Fatal("LayoutStats on an in-memory db must report !ok")
	}
	// A layout-backed database can still be re-persisted: the store
	// enumerates, so Save (WVDB) and SaveLayout both work from it.
	path2 := filepath.Join(t.TempDir(), "again.wvls")
	if _, err := ldb.SaveLayout(path2, LayoutOptions{}); err != nil {
		t.Fatalf("SaveLayout from a layout-backed db: %v", err)
	}
	ldb2, err := OpenLayout(path2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ldb2.Close() }()
	if ldb2.NonzeroCoefficients() != ldb.NonzeroCoefficients() {
		t.Fatal("re-persisted layout lost coefficients")
	}
}

// TestLayoutDegradedRun pins the degradation contract end to end, on
// both shapes: a corrupted block turns into per-key skips — the run
// completes, reports Degraded, and the skipped importance is accounted —
// instead of a crash or a silent wrong answer.
func TestLayoutDegradedRun(t *testing.T) {
	db, plan, path := layoutFixture(t)
	for _, dense := range []bool{true, false} {
		opts := LayoutOptions{HotCount: 32, BlockSize: 16}
		if !dense {
			opts.Families = []LayoutFamily{{Label: "sse", Plan: plan, Penalty: SSE()}}
		}
		if _, err := db.SaveLayout(path, opts); err != nil {
			t.Fatal(err)
		}
		// Corrupt a block the plan reads: the last one of the array, the
		// first cold one of the schedule order (it holds plan keys).
		ls, err := layout.Open(path, layout.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ls.Dense() != dense || ls.Blocks() == 0 {
			t.Fatalf("fixture is dense %v with %d blocks, want dense %v", ls.Dense(), ls.Blocks(), dense)
		}
		victim := 0
		if dense {
			victim = ls.Blocks() - 1
		}
		ref := ls.BlockExtent(victim)
		if err := ls.Close(); err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		var b [1]byte
		if _, err := f.ReadAt(b[:], ref.Off); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0x55
		if _, err := f.WriteAt(b[:], ref.Off); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}

		ldb, err := OpenLayout(path)
		if err != nil {
			t.Fatalf("OpenLayout after block corruption should succeed: %v", err)
		}
		run := ldb.NewRun(plan, SSE())
		if err := run.RunToCompletionCtx(context.Background()); err != nil {
			t.Fatalf("RunToCompletionCtx: %v", err)
		}
		if !run.Degraded() || run.SkippedCount() == 0 {
			t.Fatalf("dense %v: run over corrupt block: Degraded=%v SkippedCount=%d, want a degraded run", dense, run.Degraded(), run.SkippedCount())
		}
		if got := run.SkippedImportance(); !(got > 0) || math.IsNaN(got) {
			t.Fatalf("dense %v: SkippedImportance = %v", dense, got)
		}
		if err := ldb.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOpenLayoutRejectsBareFile pins that a layout without embedded
// metadata cannot be opened as a database.
func TestOpenLayoutRejectsBareFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bare.wvls")
	if _, err := layout.Write(path, []int{1, 2}, []float64{3, 4}, layout.WriteOptions{Cells: 8}); err != nil {
		t.Fatal(err)
	}
	if ldb, err := OpenLayout(path); err == nil {
		_ = ldb.Close()
		t.Fatal("OpenLayout accepted a layout with no metadata")
	} else if !strings.Contains(err.Error(), "metadata") {
		t.Fatalf("error %v should mention metadata", err)
	}
}

// TestLayoutQuantizedNotIdentical pins that quantization is honest: the
// flag round-trips and estimates are close but not required to be
// bit-identical.
func TestLayoutQuantizedNotIdentical(t *testing.T) {
	db, plan, path := layoutFixture(t)
	if _, err := db.SaveLayout(path, LayoutOptions{HotCount: 16, Quantize: true}); err != nil {
		t.Fatal(err)
	}
	ldb, err := OpenLayout(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ldb.Close() }()
	stats, _ := ldb.LayoutStats()
	if !stats.Quantized || !stats.Dense {
		t.Fatalf("stats %+v: want a quantized dense file", stats)
	}
	me, le := db.Exact(plan), ldb.Exact(plan)
	for q := range me {
		if math.Abs(le[q]-me[q]) > 1e-3*(1+math.Abs(me[q])) {
			t.Fatalf("quantized exact query %d: %v too far from %v", q, le[q], me[q])
		}
	}
}
