package repro

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"testing/iotest"

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
// to process. Under MVCC a write adds its exact increment to that value, so
// two loads agree after the same write too.
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
	if err := dbs[0].SaveLayout(path, LayoutOptions{}); err != nil {
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
		if err := db.EnableMVCC(MVCCConfig{}); err != nil {
			t.Fatal(err)
		}
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
		{"sparse", 1, Db4, false},
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
		if err := db.SaveLayout(path, LayoutOptions{}); err != nil {
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

// TestLoadPublishesNothingFromABadStream: a file's coefficients reach
// the store block by block, before a later block's checksum can be checked,
// so the loaders must hand back nothing when any of it — a block, a
// checksum, a key index section, the file's length — is
// bad, in either shape. A shard's start checks the whole mapped file
// (layout.Store.Verify), so it fails too: at OpenLayout, or as an error from
// NewShardServer.
func TestLoadPublishesNothingFromABadStream(t *testing.T) {
	dense, _ := savedTemperature(t)
	for shape, file := range map[string][]byte{"dense": dense, "sparse": savedSparseTemperature(t)} {
		flip := func(pos int64) []byte {
			c := append([]byte(nil), file...)
			c[pos] ^= 0x10
			return c
		}
		bad := map[string][]byte{
			"flipped last value byte": flip(int64(len(file)) - 5),
			"flipped checksum":        flip(int64(len(file)) - 1),
			"cut mid-stream":          file[:len(file)/2],
			"cut before checksum":     file[:len(file)-4],
			"trailing byte":           append(append([]byte(nil), file...), 0),
		}
		// A byte in the middle of each section of the file, as the opened
		// layout reports them, and one in the middle of the file. Not the
		// header: it has its own checksum, checked at open.
		path := filepath.Join(t.TempDir(), "f.wvls")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenLayout(path)
		if err != nil {
			t.Fatal(err)
		}
		off := int64(0)
		for _, sec := range s.layout.Sections() {
			if sec.Name != "header" {
				bad["flipped "+sec.Name] = flip(off + sec.Bytes/2)
			}
			off += sec.Bytes
		}
		_ = s.Close()
		bad["flipped mid-file byte"] = flip(int64(len(file)) / 2)
		for name, data := range bad {
			if db, err := LoadDatabase(bytes.NewReader(data)); err == nil || db != nil {
				t.Errorf("%s file, %s: LoadDatabase returned (%v, %v)", shape, name, db, err)
			}
			mapped, err := OpenLayout(savedFile(t, "bad.wvls", data))
			if err != nil {
				continue
			}
			if ss, err := mapped.NewShardServer(1, 2, nil); err == nil || ss != nil {
				t.Errorf("%s file, %s: NewShardServer returned (%v, %v)", shape, name, ss, err)
			}
			_ = mapped.Close()
		}
	}
}

// TestLoadDatabaseReadsAnyStream: LoadDatabase reads a file, from where it
// is positioned on, and any other reader once, whole — in one call when
// it tells its length, a byte at a time when it hands over one byte a call.
// Each serves the mapped file's view, dense and sparse: the same count, the
// same mass and the same Exact answers, to the bit. A copy with one flipped
// block byte publishes nothing through any of them.
func TestLoadDatabaseReadsAnyStream(t *testing.T) {
	dense, _ := savedTemperature(t)
	junk := bytes.Repeat([]byte{0xab}, 1001) // not a page multiple
	for shape, file := range map[string][]byte{"dense": dense, "sparse": savedSparseTemperature(t)} {
		mapped, err := OpenLayout(savedFile(t, shape+".wvls", file))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = mapped.Close() }()
		batch, err := ParseBatch(mapped.Schema(), "SUM(temperature) WHERE latitude BETWEEN 2 AND 9 GROUP BY altitude(4); COUNT() WHERE time <= 7")
		if err != nil {
			t.Fatal(err)
		}
		plan, err := mapped.Plan(batch)
		if err != nil {
			t.Fatal(err)
		}
		wantMass, err := mapped.CoefficientMass()
		if err != nil {
			t.Fatal(err)
		}
		want := mapped.Exact(plan)
		if mapped.layout.Blocks() == 0 {
			t.Fatalf("%s file has no block to flip", shape)
		}
		ext := mapped.layout.BlockExtent(mapped.layout.Blocks() / 2)
		flipped := append([]byte(nil), file...)
		flipped[ext.Off+int64(ext.Len)/2] ^= 0x10

		for via, reader := range map[string]func(t *testing.T, data []byte) io.Reader{
			"a byte at a time": func(_ *testing.T, data []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(data)) },
			"bytes.Reader":     func(_ *testing.T, data []byte) io.Reader { return bytes.NewReader(data) },
			"file past its start": func(t *testing.T, data []byte) io.Reader {
				f, err := os.Open(savedFile(t, "offset.wvls", append(append([]byte(nil), junk...), data...)))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = f.Close() })
				if _, err := f.Seek(int64(len(junk)), io.SeekStart); err != nil {
					t.Fatal(err)
				}
				return f
			},
		} {
			loaded, err := LoadDatabase(reader(t, file))
			if err != nil {
				t.Fatalf("%s file via %s: %v", shape, via, err)
			}
			mass, err := loaded.CoefficientMass()
			if err != nil {
				t.Fatal(err)
			}
			if loaded.NonzeroCoefficients() != mapped.NonzeroCoefficients() || math.Float64bits(mass) != math.Float64bits(wantMass) {
				t.Fatalf("%s file via %s: %d coefficients of mass %v, mapped %d of %v",
					shape, via, loaded.NonzeroCoefficients(), mass, mapped.NonzeroCoefficients(), wantMass)
			}
			for q, got := range loaded.Exact(plan) {
				if math.Float64bits(got) != math.Float64bits(want[q]) {
					t.Fatalf("%s file via %s: query %d is %v, mapped %v", shape, via, q, got, want[q])
				}
			}
			if db, err := LoadDatabase(reader(t, flipped)); err == nil || db != nil {
				t.Fatalf("%s file via %s: a flipped block byte loaded (%v, %v)", shape, via, db, err)
			}
		}
	}
}

// TestSaveLoadSaveIsByteIdentical: the store's enumeration order never
// reaches the file, in either shape, and a file written back from its
// mapping is the same file too.
func TestSaveLoadSaveIsByteIdentical(t *testing.T) {
	dense, _ := savedTemperature(t)
	for shape, file := range map[string][]byte{"dense": dense, "sparse": savedSparseTemperature(t)} {
		db, err := LoadDatabase(bytes.NewReader(file))
		if err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if err := db.Save(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(file, again.Bytes()) {
			t.Fatalf("%s: Save → LoadDatabase → Save changed the bytes", shape)
		}
		path := filepath.Join(t.TempDir(), "f.wvls")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		mapped, err := OpenLayout(path)
		if err != nil {
			t.Fatal(err)
		}
		again.Reset()
		if err := mapped.Save(&again); err != nil {
			t.Fatal(err)
		}
		_ = mapped.Close()
		if !bytes.Equal(file, again.Bytes()) {
			t.Fatalf("%s: Save → OpenLayout → Save changed the bytes", shape)
		}
	}
}

// TestLoadDatabaseAllocatesTheTableOnce: no per-coefficient intermediate —
// everything LoadDatabase allocates beyond the table itself fits in 4 MiB.
// A stream that does not tell its length costs at most one more copy of the
// file on top of that, however it is cut into reads.
func TestLoadDatabaseAllocatesTheTableOnce(t *testing.T) {
	file, src := savedTemperature(t)
	n := src.NonzeroCoefficients()
	slots := 8
	for slots-slots/8 < n { // the table's load limit is 7/8
		slots *= 2
	}
	tableBytes := uint64(slots) * 16
	load := func(r io.Reader) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		db, err := LoadDatabase(r)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if db.NonzeroCoefficients() != n {
			t.Fatalf("loaded %d coefficients, saved %d", db.NonzeroCoefficients(), n)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	sized := load(bytes.NewReader(file))
	if sized > tableBytes+4<<20 {
		t.Fatalf("LoadDatabase of %d coefficients allocated %d bytes; the table is %d", n, sized, tableBytes)
	}
	if got := load(iotest.OneByteReader(bytes.NewReader(file))); got > sized+uint64(len(file)) {
		t.Fatalf("LoadDatabase of a %d-byte stream of unknown length allocated %d bytes, %d more than of a sized one",
			len(file), got, got-sized)
	}
}
