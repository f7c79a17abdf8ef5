package repro

import (
	"bytes"
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/codec"
)

// savedTemperature returns the serialized Db6 transform of a small synthetic
// temperature set (≈ 10⁵ coefficients, a few decoder blocks) and its database.
func savedTemperature(t testing.TB) ([]byte, *Database) {
	t.Helper()
	cfg := DefaultTemperatureConfig()
	cfg.Records, cfg.LatBins, cfg.LonBins, cfg.TimeBins, cfg.TempBins = 4000, 16, 16, 16, 8
	dist, err := Temperature(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db, err := NewDatabase(dist, Db6)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), db
}

// TestCoefficientMassIsReproducible: the Theorem-1 constant K of a loaded
// file is the ascending-key sum, bit for bit, on every load — it used to
// follow Go's map iteration order and differ in the last digits from process
// to process. A write retires the carried value; the store's own walk is
// deterministic too.
func TestCoefficientMassIsReproducible(t *testing.T) {
	file, _ := savedTemperature(t)
	snap, err := codec.Read(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, v := range snap.Values {
		want += math.Abs(v)
	}
	var dbs [2]*Database
	for i := range dbs {
		if dbs[i], err = LoadDatabase(bytes.NewReader(file)); err != nil {
			t.Fatal(err)
		}
		got, err := dbs[i].CoefficientMass()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("load %d: mass %v, ascending-key sum %v", i, got, want)
		}
	}
	// A layout's header carries the same sum, so -db and -layout daemons
	// report the same bounds.
	path := filepath.Join(t.TempDir(), "m.wvls")
	if _, err := dbs[0].SaveLayout(path, LayoutOptions{}); err != nil {
		t.Fatal(err)
	}
	ldb, err := OpenLayout(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ldb.Close() }()
	if got, err := ldb.CoefficientMass(); err != nil || got != want {
		t.Fatalf("layout mass %v (%v), ascending-key sum %v", got, err, want)
	}
	for _, db := range dbs {
		if err := db.Insert([]int{3, 3, 3, 3, 3}); err != nil {
			t.Fatal(err)
		}
	}
	a, _ := dbs[0].CoefficientMass()
	b, _ := dbs[1].CoefficientMass()
	if a != b || a == want {
		t.Fatalf("after the same insert: masses %v and %v (before: %v)", a, b, want)
	}
}

// TestBuiltMassIsRepresentationIndependent: a built database carries K
// summed over the transform in ascending key order, as LoadDatabase and the
// layout writer sum it, so the built view, its Save → LoadDatabase copy and
// its .wvls header report the same K to the bit whichever representation the
// rule picked. Over a table, K used to be the sum in the table's walk order.
func TestBuiltMassIsRepresentationIndependent(t *testing.T) {
	for _, c := range []struct {
		name    string
		records int
		filter  *Filter
		array   bool
	}{
		{"dense", 4000, Db6, true},
		{"sparse", 4, Db4, false},
	} {
		cfg := DefaultTemperatureConfig()
		cfg.Records, cfg.LatBins, cfg.LonBins, cfg.TimeBins, cfg.TempBins = c.records, 16, 16, 16, 8
		dist, err := Temperature(cfg)
		if err != nil {
			t.Fatal(err)
		}
		db, err := NewDatabase(dist, c.filter)
		if err != nil {
			t.Fatal(err)
		}
		if isArrayStore(db.base) != c.array {
			t.Fatalf("%s: %d of %d coefficients built as %T", c.name, db.NonzeroCoefficients(), dist.Schema.Cells(), db.base)
		}
		var file bytes.Buffer
		if err := db.Save(&file); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadDatabase(&file)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "m.wvls")
		if _, err := db.SaveLayout(path, LayoutOptions{}); err != nil {
			t.Fatal(err)
		}
		ldb, err := OpenLayout(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ldb.Close() })
		masses := make([]float64, 3)
		for i, v := range []*Database{db, loaded, ldb} {
			if masses[i], err = v.CoefficientMass(); err != nil {
				t.Fatal(err)
			}
		}
		if masses[0] != masses[1] || masses[0] != masses[2] {
			t.Fatalf("%s: built mass %v, loaded %v, layout header %v", c.name, masses[0], masses[1], masses[2])
		}
	}
}

// TestStreamedShardMatchesPartition: a shard built from the file stream
// reports what Partition extracts from the loaded database — the same count
// and the same mass to the bit — for every index of a 1-, 2- and 4-way split.
func TestStreamedShardMatchesPartition(t *testing.T) {
	file, _ := savedTemperature(t)
	db, err := LoadDatabase(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	for _, count := range []int{1, 2, 4} {
		var nonzero int64
		for index := 0; index < count; index++ {
			streamed, err := LoadShardServer(bytes.NewReader(file), index, count, nil)
			if err != nil {
				t.Fatal(err)
			}
			extracted, err := db.NewShardServer(index, count, nil)
			if err != nil {
				t.Fatal(err)
			}
			if streamed.Nonzero() != extracted.Nonzero() || streamed.Mass() != extracted.Mass() {
				t.Fatalf("shard %d/%d: streamed (%d, %v), Partition (%d, %v)", index, count,
					streamed.Nonzero(), streamed.Mass(), extracted.Nonzero(), extracted.Mass())
			}
			if streamed.FilterName() != "Db6" {
				t.Fatalf("shard %d/%d: filter %q", index, count, streamed.FilterName())
			}
			nonzero += streamed.Nonzero()
		}
		if nonzero != int64(db.NonzeroCoefficients()) {
			t.Fatalf("%d shards hold %d coefficients, the file %d", count, nonzero, db.NonzeroCoefficients())
		}
	}
	if _, err := LoadShardServer(bytes.NewReader(file), 2, 2, nil); err == nil {
		t.Fatal("shard index 2 of 2 accepted")
	}
	if _, err := LoadShardServer(bytes.NewReader(file), 0, 3, nil); err == nil {
		t.Fatal("shard count 3 accepted")
	}
}

// TestLoadPublishesNothingFromABadStream: coefficients reach the table before
// the trailing checksum can be checked, so the loaders must hand back nothing
// when it — or anything before it — fails.
func TestLoadPublishesNothingFromABadStream(t *testing.T) {
	file, _ := savedTemperature(t)
	flip := func(pos int) []byte {
		c := append([]byte(nil), file...)
		c[pos] ^= 0x10
		return c
	}
	for name, data := range map[string][]byte{
		"flipped last value byte": flip(len(file) - 5),
		"flipped checksum":        flip(len(file) - 1),
		"flipped middle":          flip(len(file) / 2),
		"cut mid-stream":          file[:len(file)/2],
		"cut before checksum":     file[:len(file)-4],
		"trailing byte":           append(append([]byte(nil), file...), 0),
	} {
		if db, err := LoadDatabase(bytes.NewReader(data)); err == nil || db != nil {
			t.Errorf("%s: LoadDatabase returned (%v, %v)", name, db, err)
		}
		if ss, err := LoadShardServer(bytes.NewReader(data), 1, 2, nil); err == nil || ss != nil {
			t.Errorf("%s: LoadShardServer returned (%v, %v)", name, ss, err)
		}
	}
}

// TestSaveLoadSaveIsByteIdentical: the table's enumeration order never
// reaches the file.
func TestSaveLoadSaveIsByteIdentical(t *testing.T) {
	file, _ := savedTemperature(t)
	db, err := LoadDatabase(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := db.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, again.Bytes()) {
		t.Fatal("Save → LoadDatabase → Save changed the bytes")
	}
}

// TestLoadDatabaseAllocatesTheTableOnce: no per-coefficient intermediate —
// everything LoadDatabase allocates beyond the table itself fits in 4 MiB.
func TestLoadDatabaseAllocatesTheTableOnce(t *testing.T) {
	file, src := savedTemperature(t)
	n := src.NonzeroCoefficients()
	slots := 8
	for slots-slots/8 < n { // the table's load limit is 7/8
		slots *= 2
	}
	tableBytes := uint64(slots) * 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	db, err := LoadDatabase(bytes.NewReader(file))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > tableBytes+4<<20 {
		t.Fatalf("LoadDatabase of %d coefficients allocated %d bytes; the table is %d", n, got, tableBytes)
	}
	if db.NonzeroCoefficients() != n {
		t.Fatalf("loaded %d coefficients, saved %d", db.NonzeroCoefficients(), n)
	}
}
