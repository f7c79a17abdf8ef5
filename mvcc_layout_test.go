package repro

import (
	"bytes"
	"context"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/storage/layout"
)

// mappedMVCCFixture saves layoutFixture's database, or sparseLayoutFixture's,
// to its path in small blocks, so the plan spans many, and returns the plan,
// the path and the file's bytes.
func mappedMVCCFixture(t *testing.T, dense bool) (*Plan, string, []byte) {
	t.Helper()
	fixture := sparseLayoutFixture
	if dense {
		fixture = layoutFixture
	}
	db, plan, path := fixture(t)
	if err := db.SaveLayout(path, LayoutOptions{BlockSize: 16}); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return plan, path, file
}

// tupleBatch is one tuple's insert.
func tupleBatch(coords []int) *WriteBatch { return NewWriteBatch().Add(coords, 1) }

// TestMVCCOverAMapping: EnableMVCC on a mapped view keeps the mapping as its
// version-0 base — same store stack, same mass, same drain to the bit — and
// writes land over it; compaction folds base and overlay into memory, after
// which the view answers what a loaded database given the same write
// answers, to the bit.
func TestMVCCOverAMapping(t *testing.T) {
	for _, dense := range []bool{true, false} {
		plan, path, file := mappedMVCCFixture(t, dense)
		mapped, err := OpenLayout(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = mapped.Close() })
		mass, err := mapped.CoefficientMass()
		if err != nil {
			t.Fatal(err)
		}
		want := drain(t, mapped, plan, mass)

		db, err := OpenLayout(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = db.Close() })
		if err := db.EnableMVCC(MVCCConfig{DisableAutoCompact: true}); err != nil {
			t.Fatal(err)
		}
		if got := db.StoreStack(); got != "layout → instrument → mvcc" {
			t.Fatalf("dense %v: MVCC over the mapping prints %q", dense, got)
		}
		if got, err := db.CoefficientMass(); err != nil || math.Float64bits(got) != math.Float64bits(mass) {
			t.Fatalf("dense %v: version-0 mass %v (%v), the mapping's %v", dense, got, err, mass)
		}
		sameBits(t, "version 0 over the mapping", drain(t, db, plan, mass), want)

		loaded, err := LoadDatabase(bytes.NewReader(file))
		if err != nil {
			t.Fatal(err)
		}
		if err := loaded.EnableMVCC(MVCCConfig{DisableAutoCompact: true}); err != nil {
			t.Fatal(err)
		}
		for _, w := range []*Database{db, loaded} {
			if _, err := w.Apply(context.Background(), tupleBatch([]int{6, 6, 3})); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.CompactNow(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := db.StoreStack(); strings.HasPrefix(got, "layout") {
			t.Fatalf("dense %v: the compacted base still prints %q", dense, got)
		}
		lmass, err := loaded.CoefficientMass()
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "compacted against loaded", drain(t, db, plan, lmass), drain(t, loaded, plan, lmass))
	}
}

// TestMVCCOverALoadedFile: a view file served from its bytes read once
// (layout.Load, which OpenLayout serves where the platform cannot map the
// file) keeps them as MVCC's version-0 base, and a compaction that folds
// them into memory leaves them whole: a snapshot pinned at version 0
// answers after the fold exactly what it answered before, dense file and
// sparse. Compaction hands a replaced base's pages back (DropPages), which
// must do nothing to bytes that were read: there is no file behind them to
// fault them in from.
func TestMVCCOverALoadedFile(t *testing.T) {
	ctx := context.Background()
	for _, dense := range []bool{true, false} {
		plan, _, file := mappedMVCCFixture(t, dense)
		s, err := layout.Load(bytes.NewReader(file))
		if err != nil {
			t.Fatal(err)
		}
		db, err := layoutView(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.EnableMVCC(MVCCConfig{DisableAutoCompact: true}); err != nil {
			t.Fatal(err)
		}
		v0, err := db.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		defer v0.Release()
		before := v0.Exact(plan)
		if _, err := db.Apply(ctx, tupleBatch([]int{6, 6, 3})); err != nil {
			t.Fatal(err)
		}
		if err := db.CompactNow(ctx); err != nil {
			t.Fatal(err)
		}
		if got := db.StoreStack(); strings.HasPrefix(got, "layout") {
			t.Fatalf("dense %v: the compacted base still prints %q", dense, got)
		}
		for q, got := range v0.Exact(plan) {
			if math.Float64bits(got) != math.Float64bits(before[q]) {
				t.Fatalf("dense %v, query %d: version 0 answers %v after the fold, %v before", dense, q, got, before[q])
			}
		}
	}
}

// TestDamagedMappingUnderMVCC: a mapped file with one damaged cold block
// serves as MVCC's base without ever crashing the process. CompactNow
// returns the damage and the overlay keeps serving; a drain over the block
// comes back degraded with every query's bound at least its error; and the
// background compactor meets the damage and leaves the process running.
func TestDamagedMappingUnderMVCC(t *testing.T) {
	ctx := context.Background()
	for _, dense := range []bool{true, false} {
		plan, path, file := mappedMVCCFixture(t, dense)
		// The damage sits in a block the plan reads and a tuple's write can
		// miss: the one holding the largest stored key the plan reads (a
		// fine detail, where every write touches the coarse coefficients of
		// the first) — in a dense file the last.
		ls, err := layout.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		reads := map[int]bool{}
		for _, k := range plan.ScheduleFor(SSE()).KeyOrder() {
			reads[k] = true
		}
		victim, slot := 0, 0
		if err := ls.Walk(func(k int, _ float64) bool {
			if reads[k] {
				victim = slot / ls.BlockSize()
			}
			slot++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if dense {
			victim = ls.Blocks() - 1
		}
		at := ls.BlockExtent(victim).Off
		if err := ls.Close(); err != nil {
			t.Fatal(err)
		}
		damaged := append([]byte(nil), file...)
		damaged[at] ^= 0x55
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		open := func(cfg MVCCConfig) *Database {
			db, err := OpenLayout(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = db.Close() })
			if err := db.EnableMVCC(cfg); err != nil {
				t.Fatal(err)
			}
			return db
		}

		// A write whose merge reads meet the damage fails and publishes
		// nothing; the first tuple clear of it is the write under test.
		db := open(MVCCConfig{DisableAutoCompact: true})
		var coords []int
		for _, c := range [][]int{{6, 6, 3}, {3, 9, 1}, {9, 2, 5}, {12, 12, 6}} {
			if _, err := db.Apply(ctx, tupleBatch(c)); err == nil {
				coords = c
				break
			}
			if db.Version() != 0 {
				t.Fatalf("dense %v: a failed Apply published version %d", dense, db.Version())
			}
		}
		if coords == nil {
			t.Fatalf("dense %v: every candidate write met the damaged block", dense)
		}

		err = db.CompactNow(ctx)
		if err == nil {
			t.Fatalf("dense %v: CompactNow over a damaged base returned nil", dense)
		}
		if st, _ := db.MVCCStats(); st.Compactions != 0 || st.Layers != 1 || st.Version != 1 {
			t.Fatalf("dense %v: after the failed compaction (%v): %+v, want the overlay kept", dense, err, st)
		}

		oracle, err := LoadDatabase(bytes.NewReader(file))
		if err != nil {
			t.Fatal(err)
		}
		if err := oracle.EnableMVCC(MVCCConfig{}); err != nil {
			t.Fatal(err)
		}
		if _, err := oracle.Apply(ctx, tupleBatch(coords)); err != nil {
			t.Fatal(err)
		}
		exact := oracle.Exact(plan)
		mass, err := db.CoefficientMass()
		if err != nil {
			t.Fatal(err)
		}
		run := db.NewRun(plan, SSE())
		if err := run.RunToCompletionCtx(ctx); err != nil {
			t.Fatal(err)
		}
		if !run.Degraded() || run.SkippedCount() == 0 {
			t.Fatalf("dense %v: drain over the damaged block: Degraded=%v SkippedCount=%d", dense, run.Degraded(), run.SkippedCount())
		}
		for q, est := range run.Estimates() {
			bound := run.QueryErrorBound(q, mass)
			if actual := math.Abs(est - exact[q]); actual > bound*(1+1e-9)+1e-12 {
				t.Fatalf("dense %v: query %d: error %g exceeds bound %g", dense, q, actual, bound)
			}
		}

		// Two writes pass MaxLayerKeys 1, so the background compactor folds —
		// and meets the damage on its own goroutine.
		auto := open(MVCCConfig{MaxLayerKeys: 1})
		for i := 0; i < 2; i++ {
			if _, err := auto.Apply(ctx, tupleBatch(coords)); err != nil {
				t.Fatal(err)
			}
		}
		auto.mvcc.WaitCompactions()
		if st, _ := auto.MVCCStats(); st.Compactions != 0 || st.Layers != 2 || st.Version != 2 {
			t.Fatalf("dense %v: after the background compaction: %+v, want the overlay kept", dense, st)
		}
		if _, err := auto.ExactCtx(ctx, plan); err == nil {
			t.Fatalf("dense %v: an exact pass over the damaged block succeeded", dense)
		}
	}
}
