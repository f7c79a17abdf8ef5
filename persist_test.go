package repro

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	_, dist, db, batch, truth := facadeFixture(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	re, err := LoadDatabase(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if re.Filter().Name != "Db4" {
		t.Fatalf("filter = %s", re.Filter().Name)
	}
	if re.TupleCount() != dist.TupleCount {
		t.Fatalf("tuple count %d, want %d", re.TupleCount(), dist.TupleCount)
	}
	if !re.Schema().Equal(db.Schema()) {
		t.Fatal("schema changed through save/load")
	}
	// Queries built against the original schema still evaluate exactly.
	plan, err := re.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	got := re.Exact(plan)
	for i := range got {
		if math.Abs(got[i]-truth[i]) > 1e-6*(1+math.Abs(truth[i])) {
			t.Fatalf("query %d after reload: got %g want %g", i, got[i], truth[i])
		}
	}
}

func TestSaveLoadPreservesUpdates(t *testing.T) {
	schema, err := NewSchema([]string{"x"}, []int{16})
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
	for _, x := range []int{1, 5, 5, 9} {
		if err := db.Insert([]int{x}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Delete([]int{9}); err != nil {
		t.Fatal(err)
	}
	if db.TupleCount() != 3 {
		t.Fatalf("TupleCount = %d", db.TupleCount())
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	re, err := LoadDatabase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	batch := CountBatch(re.Schema(), []Range{FullDomain(re.Schema())})
	plan, err := re.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	if got := re.Exact(plan)[0]; math.Abs(got-3) > 1e-9 {
		t.Fatalf("reloaded count = %g, want 3", got)
	}
}

func TestLoadDatabaseRejectsGarbage(t *testing.T) {
	if _, err := LoadDatabase(strings.NewReader("not a database")); err == nil {
		t.Error("garbage should fail")
	}
	if _, err := LoadDatabase(strings.NewReader("")); err == nil {
		t.Error("empty stream should fail")
	}
}

func TestSaveDeterministic(t *testing.T) {
	_, _, db, _, _ := facadeFixture(t)
	var a, b bytes.Buffer
	if err := db.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("Save is not deterministic")
	}
	if !bytes.HasPrefix(a.Bytes(), []byte("WVLS")) {
		t.Fatalf("Save wrote %q…, not a .wvls file", a.Bytes()[:4])
	}
}

func TestWindowsPersistThroughSaveLoad(t *testing.T) {
	schema, err := NewSchema([]string{"age", "salary"}, []int{8, 8})
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewEmptyDatabase(schema, Haar)
	if err != nil {
		t.Fatal(err)
	}
	wins := [][2]float64{{18, 70}, {0, 200000}}
	if err := db.SetWindows(wins); err != nil {
		t.Fatal(err)
	}
	if err := db.SetWindows([][2]float64{{0, 1}}); err == nil {
		t.Error("window count mismatch should fail")
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	re, err := LoadDatabase(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := re.Windows()
	if got == nil || got[0] != wins[0] || got[1] != wins[1] {
		t.Fatalf("windows after reload = %v", got)
	}
}
