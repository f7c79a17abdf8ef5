package repro

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/storage/layout"
)

// layoutFixture is a database of 3000 tuples over 2048 cells, every cell
// nonzero under Db4, so it is saved with rank records, with a plan over it
// and a path to save it at.
func layoutFixture(t *testing.T) (*Database, *Plan, string) {
	t.Helper()
	return layoutFixtureOf(t, 16, 3000)
}

// sparseLayoutFixture is layoutFixture's attributes and queries over a
// 32×32×8 domain and 1 tuple: 720 of the 8192 cells (8.8 %) are nonzero,
// so it is saved with a key directory.
func sparseLayoutFixture(t *testing.T) (*Database, *Plan, string) {
	t.Helper()
	return layoutFixtureOf(t, 32, 1)
}

// layoutFixtureOf is a database of records tuples over an xy×xy×8 domain.
func layoutFixtureOf(t *testing.T, xy, records int) (*Database, *Plan, string) {
	t.Helper()
	schema, err := NewSchema([]string{"x", "y", "m"}, []int{xy, xy, 8})
	if err != nil {
		t.Fatal(err)
	}
	dist := UniformData(schema, records, 11)
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

// TestLayoutDrainBitIdentity is the acceptance criterion on the sparse
// shape: a progressive drain over the layout store produces estimates
// bit-identical (==) to the in-memory drain at every intermediate step, and
// the worst-case bounds agree because the persisted mass equals the
// enumerated mass.
func TestLayoutDrainBitIdentity(t *testing.T) {
	db, plan, path := sparseLayoutFixture(t)
	if err := db.SaveLayout(path, LayoutOptions{BlockSize: 32}); err != nil {
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
		stepOne(memRun)
		stepOne(layoutRun)
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

	// Batched drain too — StepBatchCtx is the server's stepping shape.
	memRun2 := db.NewRun(plan, SSE())
	layoutRun2 := ldb.NewRun(plan, SSE())
	for !memRun2.Done() {
		stepBatch(memRun2, 7)
		stepBatch(layoutRun2, 7)
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

	stats, ok := ldb.LayoutStats()
	if !ok {
		t.Fatal("LayoutStats not available")
	}
	if stats.Shape != "directory" {
		t.Fatal("the fixture is sparse enough for a key directory")
	}
	if stats.ColdHits == 0 {
		t.Fatalf("stats = %+v: the drain counted no hits", stats)
	}
}

// TestLayoutDenseDrainBitIdentity is the acceptance criterion on dense data:
// the fixture is written with rank words, and a progressive drain over it
// is bit-identical (==) to the in-memory drain at every step, bounds
// included.
func TestLayoutDenseDrainBitIdentity(t *testing.T) {
	db, plan, path := layoutFixture(t)
	if err := db.SaveLayout(path, LayoutOptions{BlockSize: 64}); err != nil {
		t.Fatal(err)
	}
	ldb, err := OpenLayout(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ldb.Close() }()
	if stats, _ := ldb.LayoutStats(); stats.Shape != "rank" {
		t.Fatal("the fixture is dense enough for rank words")
	}
	mass, err := ldb.CoefficientMass()
	if err != nil {
		t.Fatal(err)
	}
	memRun, layoutRun := db.NewRun(plan, SSE()), ldb.NewRun(plan, SSE())
	for !memRun.Done() {
		stepBatch(memRun, 5)
		stepBatch(layoutRun, 5)
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
	if err := db.SaveLayout(path, LayoutOptions{}); err != nil {
		t.Fatal(err)
	}
	ldb, err := OpenLayout(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ldb.Close() }()
	if stats, _ := ldb.LayoutStats(); stats.Shape != "rank" {
		t.Fatal("the fixture is dense enough for rank words")
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
	// enumerates, so Save and SaveLayout both work from it.
	path2 := filepath.Join(t.TempDir(), "again.wvls")
	if err := ldb.SaveLayout(path2, LayoutOptions{}); err != nil {
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
	for _, dense := range []bool{true, false} {
		fixture := sparseLayoutFixture
		if dense {
			fixture = layoutFixture
		}
		db, plan, path := fixture(t)
		if err := db.SaveLayout(path, LayoutOptions{BlockSize: 16}); err != nil {
			t.Fatal(err)
		}
		// Corrupt a block the plan reads: the first, which holds the
		// smallest keys, the coarsest coefficients every query reads.
		ls, err := layout.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := map[bool]string{true: "rank", false: "directory"}[dense]; ls.Shape() != want || ls.Blocks() == 0 {
			t.Fatalf("fixture is in the %s shape with %d blocks, want %s", ls.Shape(), ls.Blocks(), want)
		}
		ref := ls.BlockExtent(0)
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
	if err := layout.WriteFile(path, func(w io.Writer) error {
		return layout.Encode(w, []int{1, 2}, []float64{3, 4}, layout.WriteOptions{Cells: 8})
	}); err != nil {
		t.Fatal(err)
	}
	if ldb, err := OpenLayout(path); err == nil {
		_ = ldb.Close()
		t.Fatal("OpenLayout accepted a layout with no metadata")
	} else if !strings.Contains(err.Error(), "metadata") {
		t.Fatalf("error %v should mention metadata", err)
	}
}

// TestOpenDatabaseRefusesADamagedHeader: a file that starts like a .wvls but
// whose header does not check is an error from OpenLayout (how wvqd opens
// its file in every mode) and from LoadDatabase, not a crash.
func TestOpenDatabaseRefusesADamagedHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "damaged.wvls")
	if err := os.WriteFile(path, []byte(layout.Magic+strings.Repeat("garbage ", 16)), 0o644); err != nil {
		t.Fatal(err)
	}
	if db, err := OpenLayout(path); err == nil {
		_ = db.Close()
		t.Fatal("OpenLayout accepted a damaged header")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := LoadDatabase(f); err == nil {
		t.Fatal("LoadDatabase accepted a damaged header")
	}
}

// TestOpenDatabaseRefusesAHotRegion: every file this reader no longer
// reads is refused by OpenLayout and by LoadDatabase with its own named
// message, which sends the user to a rebuild from the source data — never
// to wvlayout, which opens its input through the same refusing reader. The
// files: a sparse file of today with the header's first reserved word (once
// a hot region of raw values outside the blocks) set to 3; a sparse file
// written with its values in |value|-descending slots, which records one
// family in the second reserved word (testdata, from the writer before
// values were stored in key order); a sparse file whose keys are a delta
// stream behind samples, which records the stream's length in the third
// (testdata, from the writer before the key index was a bucket directory);
// and a file of today with a version-1 prelude or the retired float32-values
// flag. A header word is changed with
// the header checksum fixed, so nothing but that word is wrong.
func TestOpenDatabaseRefusesAHotRegion(t *testing.T) {
	today := savedSparseTemperature(t)
	if _, err := LoadDatabase(bytes.NewReader(today)); err != nil {
		t.Fatalf("the file as saved: %v", err)
	}
	byValue, err := os.ReadFile("internal/storage/layout/testdata/sparse_by_value.wvls")
	if err != nil {
		t.Fatal(err)
	}
	keyStream, err := os.ReadFile("internal/storage/layout/testdata/sparse_key_stream.wvls")
	if err != nil {
		t.Fatal(err)
	}
	const hotWord = 16 + 16 // the prelude, then the header's cells and nonzero
	hot := bytes.Clone(today)
	hdrLen := binary.LittleEndian.Uint32(hot[8:12])
	binary.LittleEndian.PutUint64(hot[hotWord:], 3)
	binary.LittleEndian.PutUint32(hot[12:16], crc32.ChecksumIEEE(hot[16:16+hdrLen]))
	v1 := bytes.Clone(today)
	v1[4] = 1
	float32Values := bytes.Clone(today)
	float32Values[6] |= 1
	for _, tc := range []struct {
		name, named string
		file        []byte
	}{
		{"hot word 3", "nonzero reserved header words", hot},
		{"values by |value|", "nonzero reserved header words", byValue},
		{"keys in a delta stream", "nonzero reserved header words", keyStream},
		{"version 1", "version 1 .wvls file", v1},
		{"float32 values", "float32 block values", float32Values},
	} {
		path := filepath.Join(t.TempDir(), "old.wvls")
		if err := os.WriteFile(path, tc.file, 0o644); err != nil {
			t.Fatal(err)
		}
		refused := func(via string, err error) {
			t.Helper()
			switch msg := fmt.Sprint(err); {
			case err == nil:
				t.Fatalf("%s: %s accepted the file", tc.name, via)
			case !strings.Contains(msg, tc.named) || !strings.Contains(msg, "rebuild it from the source data with wvload or wvq -create"):
				t.Fatalf("%s: %s = %v, want an error naming the %s and the rebuild", tc.name, via, err, tc.named)
			case strings.Contains(msg, "wvlayout"):
				t.Fatalf("%s: %s = %v names wvlayout, which cannot open the file", tc.name, via, err)
			}
		}
		db, err := OpenLayout(path)
		if err == nil {
			_ = db.Close()
		}
		refused("OpenLayout", err)
		_, err = LoadDatabase(bytes.NewReader(tc.file))
		refused("LoadDatabase", err)
	}
}
