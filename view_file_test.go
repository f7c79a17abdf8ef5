package repro

import (
	"bytes"
	"context"
	"math"
	"net"
	"os"
	"path/filepath"
	"testing"
)

// trajectory is what a drain reports after every batch: each query's
// estimate and Theorem-1 bound.
type trajectory struct {
	estimates, bounds [][]float64
}

// drain runs the plan over db in batches of 16 under mass.
func drain(t *testing.T, db *Database, plan *Plan, mass float64) trajectory {
	t.Helper()
	var tr trajectory
	run := db.NewRun(plan, SSE())
	for !run.Done() {
		if _, err := run.StepBatchCtx(context.Background(), 16); err != nil {
			t.Fatal(err)
		}
		tr.estimates = append(tr.estimates, append([]float64(nil), run.Estimates()...))
		tr.bounds = append(tr.bounds, append([]float64(nil), run.QueryErrorBounds(mass)...))
	}
	return tr
}

// sameBits fails unless the two trajectories are equal to the bit.
func sameBits(t *testing.T, what string, got, want trajectory) {
	t.Helper()
	if len(got.estimates) != len(want.estimates) {
		t.Fatalf("%s: %d steps, want %d", what, len(got.estimates), len(want.estimates))
	}
	for s := range want.estimates {
		for q := range want.estimates[s] {
			if math.Float64bits(got.estimates[s][q]) != math.Float64bits(want.estimates[s][q]) ||
				math.Float64bits(got.bounds[s][q]) != math.Float64bits(want.bounds[s][q]) {
				t.Fatalf("%s, step %d, query %d: (%v ± %v), want (%v ± %v)", what, s, q,
					got.estimates[s][q], got.bounds[s][q], want.estimates[s][q], want.bounds[s][q])
			}
		}
	}
}

// TestViewFileOpenFormsAreBitIdentical: whatever opens the file Save
// writes — the mapping, a load into memory, two shards of
// the mapping or of the load behind a coordinator — serves the database that
// wrote it: every prefix of a drain of one plan has the same estimates and
// per-query bounds, to the bit, and CoefficientMass is the same float64. The
// inputs are a dense transform (a rank file), a transform of few cells (a
// key directory and a table in memory) and a snapshot of an MVCC database
// after writes. An
// MVCC database carries its mass as bookkeeping rather than the ascending
// sum a file holds, so its drains are compared under the file's mass.
func TestViewFileOpenFormsAreBitIdentical(t *testing.T) {
	build := func(t *testing.T, records int, filter *Filter) *Database {
		cfg := DefaultTemperatureConfig()
		cfg.Records, cfg.LatBins, cfg.LonBins, cfg.TimeBins, cfg.TempBins = records, 16, 16, 16, 8
		dist, err := Temperature(cfg)
		if err != nil {
			t.Fatal(err)
		}
		db, err := NewDatabase(dist, filter)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	for _, c := range []struct {
		name  string
		db    func(t *testing.T) *Database
		shape string
	}{
		{"dense", func(t *testing.T) *Database { return build(t, 4000, Db6) }, "rank"},
		{"sparse", func(t *testing.T) *Database { return build(t, 1, Db4) }, "directory"},
		{"mvcc snapshot", func(t *testing.T) *Database {
			db := build(t, 4000, Db6)
			if err := db.EnableMVCC(MVCCConfig{DisableAutoCompact: true}); err != nil {
				t.Fatal(err)
			}
			b := NewWriteBatch()
			for i := 0; i < 50; i++ {
				b.Add([]int{i % 16, (3 * i) % 16, i % 8, (7 * i) % 16, i % 8}, 1)
			}
			if _, err := db.Apply(context.Background(), b); err != nil {
				t.Fatal(err)
			}
			return db
		}, "rank"},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := c.db(t)
			var file bytes.Buffer
			if err := db.Save(&file); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "db.wvls")
			if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			batch, err := ParseBatch(db.Schema(), "SUM(temperature) WHERE latitude BETWEEN 2 AND 9 GROUP BY altitude(4); COUNT() WHERE time <= 7")
			if err != nil {
				t.Fatal(err)
			}
			plan, err := db.Plan(batch)
			if err != nil {
				t.Fatal(err)
			}
			mass, err := db.CoefficientMass()
			if err != nil {
				t.Fatal(err)
			}

			mapped, err := OpenLayout(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = mapped.Close() })
			if st, _ := mapped.LayoutStats(); st.Shape != c.shape {
				t.Fatalf("file is in the %s shape, want %s", st.Shape, c.shape)
			}
			loaded, err := LoadDatabase(bytes.NewReader(file.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			fileMass, err := loaded.CoefficientMass()
			if err != nil {
				t.Fatal(err)
			}
			if db.MVCCEnabled() {
				if math.Abs(fileMass-mass) > 1e-12*mass {
					t.Fatalf("file mass %v, MVCC bookkeeping %v", fileMass, mass)
				}
				mass = fileMass
			}
			want := drain(t, db, plan, mass)
			// Two shards of the mapped file, and two of the loaded one, each
			// behind a coordinator, which takes its mass from the shards.
			coordinator := func(v *Database) *Database {
				addrs := make([]string, 2)
				for i := range addrs {
					ss, err := v.NewShardServer(i, 2, nil)
					if err != nil {
						t.Fatal(err)
					}
					ln, err := net.Listen("tcp", "127.0.0.1:0")
					if err != nil {
						t.Fatal(err)
					}
					go func() { _ = ss.Serve(ln) }()
					t.Cleanup(func() { _ = ss.Close() })
					addrs[i] = ln.Addr().String()
				}
				ddb, err := OpenDistributed(addrs, DistOptions{})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { _ = ddb.Close() })
				return ddb
			}
			forms := map[string]*Database{
				"OpenLayout": mapped, "LoadDatabase": loaded,
				"coordinator of the mapped file": coordinator(mapped), "coordinator of the loaded file": coordinator(loaded),
			}
			for name, v := range forms {
				got, err := v.CoefficientMass()
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(mass) {
					t.Fatalf("%s: mass %v, want %v", name, got, mass)
				}
				sameBits(t, name, drain(t, v, plan, got), want)
			}
		})
	}
}

// TestOpenLayoutSurvivesItsFileBeingRewritten: SaveLayout over the path a
// served database has mapped — wvq -create or wvload over a file wvqd -db
// serves — leaves that database answering what it answered before, to the
// bit; it used to truncate the file under the mapping and the next read
// past the new end killed the process. A reopen serves the new file.
func TestOpenLayoutSurvivesItsFileBeingRewritten(t *testing.T) {
	db, plan, path := layoutFixture(t)
	if err := db.SaveLayout(path, LayoutOptions{}); err != nil {
		t.Fatal(err)
	}
	served, err := OpenLayout(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = served.Close() }()
	mass, err := served.CoefficientMass()
	if err != nil {
		t.Fatal(err)
	}
	before := drain(t, served, plan, mass)

	// A much smaller database over the same path.
	small, err := NewEmptyDatabase(db.Schema(), Db4)
	if err != nil {
		t.Fatal(err)
	}
	if err := small.EnableMVCC(MVCCConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := small.Insert([]int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := small.SaveLayout(path, LayoutOptions{}); err != nil {
		t.Fatal(err)
	}
	sameBits(t, "after the rewrite", drain(t, served, plan, mass), before)
	reopened, err := OpenLayout(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = reopened.Close() }()
	if reopened.NonzeroCoefficients() != small.NonzeroCoefficients() {
		t.Fatalf("reopened: %d coefficients, the new file has %d", reopened.NonzeroCoefficients(), small.NonzeroCoefficients())
	}
}
