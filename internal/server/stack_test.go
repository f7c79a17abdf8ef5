package server

import (
	"context"
	"math"
	"path/filepath"
	"testing"

	"repro"
)

// prefixes drains a fresh run in batches of 16 and returns the estimates
// after every batch.
func prefixes(t *testing.T, db *repro.Database, plan *repro.Plan) [][]float64 {
	t.Helper()
	var out [][]float64
	run := db.NewRun(plan, repro.SSE())
	for !run.Done() {
		if _, err := run.StepBatchCtx(context.Background(), 16); err != nil {
			t.Fatal(err)
		}
		out = append(out, append([]float64(nil), run.Estimates()...))
	}
	return out
}

// TestInjectFaultsRestoreKeepsServerLayers: restore removes the injector and
// nothing else. On a plain database it used to rewind the store to what it
// was before InjectFaults, dropping the mutex and the coalescer the server
// had put on since.
func TestInjectFaultsRestoreKeepsServerLayers(t *testing.T) {
	schema, err := repro.NewSchema([]string{"age", "salary"}, []int{32, 32})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := repro.NewDatabase(repro.UniformData(schema, 300, 5), repro.Db4)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "db.wvls")
	if err := plain.SaveLayout(path, repro.LayoutOptions{HotCount: 8, BlockSize: 16}); err != nil {
		t.Fatal(err)
	}
	layout, err := repro.OpenLayout(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = layout.Close() })
	batch, err := repro.ParseBatch(schema, "COUNT() WHERE age <= 15; SUM(salary) WHERE age >= 7")
	if err != nil {
		t.Fatal(err)
	}
	for name, db := range map[string]*repro.Database{"plain": plain, "layout": layout} {
		plan, err := db.Plan(batch)
		if err != nil {
			t.Fatal(err)
		}
		want := prefixes(t, db, plan)

		restore := db.InjectFaults(repro.FaultConfig{ErrorRate: 0.5, Seed: 9})
		h := NewWithOptions(db, Options{})
		t.Cleanup(h.Close)
		_, coalescing := db.CoalescingStats()
		if !db.ConcurrentSafe() || !coalescing {
			t.Fatalf("%s: served with ConcurrentSafe %v, coalescing %v", name, db.ConcurrentSafe(), coalescing)
		}
		restore()
		if _, ok := db.CoalescingStats(); !db.ConcurrentSafe() || !ok {
			t.Fatalf("%s: after restore ConcurrentSafe %v, coalescing %v (stack %s)", name, db.ConcurrentSafe(), ok, db.StoreStack())
		}
		got := prefixes(t, db, plan)
		if len(got) != len(want) {
			t.Fatalf("%s: %d prefixes after restore, %d before", name, len(got), len(want))
		}
		for i := range want {
			for q := range want[i] {
				if math.Float64bits(got[i][q]) != math.Float64bits(want[i][q]) {
					t.Fatalf("%s prefix %d query %d: %v after restore, %v fault-free", name, i, q, got[i][q], want[i][q])
				}
			}
		}
	}
}
