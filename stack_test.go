package repro

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/storage"
)

// stackFixture is a database small enough to rebuild and drain a thousand
// times, and a plan over it.
func stackFixture(t *testing.T) (*Database, *Plan) {
	t.Helper()
	schema, err := NewSchema([]string{"x", "y"}, []int{16, 16})
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDatabase(UniformData(schema, 200, 3), Db4)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := ParseBatch(schema, "COUNT() WHERE x <= 9; SUM(y) WHERE x >= 4 AND y <= 11")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	return db, plan
}

// permutations calls fn with every ordering of 0..n-1 (Heap's algorithm).
func permutations(n int, fn func(order []int)) {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == 1 {
			fn(order)
			return
		}
		for i := 0; i < k; i++ {
			rec(k - 1)
			if k%2 == 0 {
				order[i], order[k-1] = order[k-1], order[i]
			} else {
				order[0], order[k-1] = order[k-1], order[0]
			}
		}
	}
	rec(n)
}

// TestStoreStackIsOrderIndependent: the Enable* methods declare layers, they
// do not wrap them on, so every order of calling them builds the same stack —
// and, the layers all being idle, a drain through it is the bare database's
// at every prefix, estimates to the bit and bounds with ==.
func TestStoreStackIsOrderIndependent(t *testing.T) {
	calls := []struct {
		name string
		do   func(*Database) error
	}{
		{"InjectFaults", func(db *Database) error { db.InjectFaults(FaultConfig{}); return nil }},
		{"EnableRetries", func(db *Database) error { db.EnableRetries(RetryConfig{}); return nil }},
		{"EnableInstrumentation", func(db *Database) error { db.EnableInstrumentation(); return nil }},
		{"EnableCoalescing", (*Database).EnableCoalescing},
		{"EnableMVCC", func(db *Database) error { return db.EnableMVCC(MVCCConfig{}) }},
	}
	bare, plan := stackFixture(t)
	mass, err := bare.CoefficientMass()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		calls int
		want  string
	}{
		{4, "array → fault → retry → instrument → coalesce"},
		{5, "array → fault → retry → instrument → coalesce → mvcc"},
	} {
		permutations(c.calls, func(order []int) {
			db, _ := stackFixture(t)
			var names []string
			for _, i := range order {
				names = append(names, calls[i].name)
				if err := calls[i].do(db); err != nil {
					t.Fatalf("%v: %v", names, err)
				}
			}
			what := strings.Join(names, ", ")
			if got := db.StoreStack(); got != c.want {
				t.Fatalf("%s: stack %q, want %q", what, got, c.want)
			}
			sameDrain(t, what, bare, db, plan, mass)
		})
	}
}

// TestEnableInstrumentationOnceUnderLaterLayers: a second
// EnableInstrumentation after another layer landed on top used to look only
// at the top layer, miss the timer underneath, and time every batch twice.
func TestEnableInstrumentationOnceUnderLaterLayers(t *testing.T) {
	reg := obs.NewRegistry()
	storage.Observe(reg)
	t.Cleanup(func() { storage.Observe(nil) })
	db, plan := stackFixture(t)
	db.EnableInstrumentation()
	db.EnableRetries(RetryConfig{})
	db.EnableInstrumentation()
	if got := db.StoreStack(); strings.Count(got, "instrument") != 1 {
		t.Fatalf("stack %q names the timer %d times", got, strings.Count(got, "instrument"))
	}
	run := db.NewRun(plan, SSE())
	batches := 0
	for !run.Done() {
		run.StepBatch(32)
		batches++
	}
	if got := reg.Snapshot()["wvq_storage_batchget_seconds_count"]; got != float64(batches) {
		t.Fatalf("%v timings for %d batches", got, batches)
	}
}
