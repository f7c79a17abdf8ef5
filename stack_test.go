package repro

import (
	"path/filepath"
	"testing"
)

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
		db.SetStack(Stack{Fault: &FaultConfig{}, Retry: &RetryConfig{}, Coalesce: true})
		return nil
	}
	timed := func(db *Database) error { db.SetStack(Stack{}); return nil }
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

// TestDatabaseInMemory pins the rule a server adds coalescing by: a database
// answers from memory when its base is an in-memory store, dense or sparse,
// or a layout file — with or without MVCC over it — and its stack has no
// fault or coalescing layer; retries and the instrument layer every stack
// has change nothing. A shard coordinator never does.
func TestDatabaseInMemory(t *testing.T) {
	built := func(sizes []int, tuples int, array bool) func(*testing.T) *Database {
		return func(t *testing.T) *Database {
			schema, err := NewSchema([]string{"x", "y"}, sizes)
			if err != nil {
				t.Fatal(err)
			}
			db, err := NewDatabase(UniformData(schema, tuples, 3), Db4)
			if err != nil {
				t.Fatal(err)
			}
			if isArrayStore(db.base) != array {
				t.Fatalf("fixture drifted: %d tuples over %v built a %T", tuples, sizes, db.base)
			}
			return db
		}
	}
	src, _ := stackFixture(t)
	path := filepath.Join(t.TempDir(), "db.wvls")
	if err := src.SaveLayout(path, LayoutOptions{}); err != nil {
		t.Fatal(err)
	}
	opened := func(open func(string) (*Database, error)) func(*testing.T) *Database {
		return func(t *testing.T) *Database {
			db, err := open(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = db.Close() })
			return db
		}
	}
	_, coord, _, _, _ := distFixture(t, 1)
	for _, base := range []struct {
		name     string
		open     func(*testing.T) *Database
		inMemory bool
		mvcc     bool // EnableMVCC applies
	}{
		{"built dense", built([]int{16, 16}, 200, true), true, true},
		{"built sparse", built([]int{256, 256}, 40, false), true, true},
		{"mapped layout", opened(OpenLayout), true, true},
		{"1-shard coordinator", func(*testing.T) *Database { return coord }, false, false},
	} {
		for _, stack := range []struct {
			name  string
			stack Stack
			keeps bool
		}{
			{"bare", Stack{}, true},
			{"fault", Stack{Fault: &FaultConfig{}}, false},
			{"retry", Stack{Retry: &RetryConfig{}}, true},
			{"coalesce", Stack{Coalesce: true}, false},
		} {
			for _, mvcc := range []bool{false, true} {
				if mvcc && !base.mvcc {
					continue
				}
				db := base.open(t)
				db.SetStack(stack.stack)
				if mvcc {
					if err := db.EnableMVCC(MVCCConfig{DisableAutoCompact: true}); err != nil {
						t.Fatal(err)
					}
				}
				if got, want := db.InMemory(), base.inMemory && stack.keeps; got != want {
					t.Errorf("%s, %s stack, mvcc %v: InMemory() = %v, want %v", base.name, stack.name, mvcc, got, want)
				}
			}
		}
	}
}
