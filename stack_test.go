package repro

import "testing"

// stackFixture is a database small enough to rebuild and drain many times,
// and a plan over it.
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

// TestStoreStackIsOrderIndependent: SetStack declares the layers and
// EnableMVCC puts the write layers over whatever is declared, so either order
// builds the same stack, and a second SetStack replaces the first instead of
// stacking on it. The layers all being idle, a drain through any of them is
// the bare database's at every prefix, estimates to the bit and bounds with
// ==.
func TestStoreStackIsOrderIndependent(t *testing.T) {
	full := func(db *Database) error {
		db.SetStack(Stack{Fault: &FaultConfig{}, Retry: &RetryConfig{}, Instrument: true, Coalesce: true})
		return nil
	}
	timed := func(db *Database) error { db.SetStack(Stack{Instrument: true}); return nil }
	mvcc := func(db *Database) error { return db.EnableMVCC(MVCCConfig{}) }
	bare, plan := stackFixture(t)
	mass, err := bare.CoefficientMass()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		calls string
		do    []func(*Database) error
		want  string
	}{
		{"SetStack", []func(*Database) error{full}, "array → fault → retry → instrument → coalesce"},
		{"SetStack, EnableMVCC", []func(*Database) error{full, mvcc}, "array → fault → retry → instrument → coalesce → mvcc"},
		{"EnableMVCC, SetStack", []func(*Database) error{mvcc, full}, "array → fault → retry → instrument → coalesce → mvcc"},
		{"SetStack, SetStack", []func(*Database) error{full, timed}, "array → instrument"},
		{"EnableMVCC, SetStack, SetStack", []func(*Database) error{mvcc, full, timed}, "array → instrument → mvcc"},
	} {
		db, _ := stackFixture(t)
		for _, do := range c.do {
			if err := do(db); err != nil {
				t.Fatalf("%s: %v", c.calls, err)
			}
		}
		if got := db.StoreStack(); got != c.want {
			t.Fatalf("%s: stack %q, want %q", c.calls, got, c.want)
		}
		sameDrain(t, c.calls, bare, db, plan, mass)
	}
}
