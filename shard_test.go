package repro

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dist"
	"repro/internal/storage"
)

// savedFile writes file to a fresh temporary path and returns the path.
func savedFile(t testing.TB, name string, file []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestStreamedShardMatchesPartition: shards of a mapped dense file, a mapped
// sparse file and an MVCC view after writes — 1-, 2- and 4-way, each opened
// the way `wvqd -shard-listen` opens it — stream every key of their ShardOf
// partition over the wire with the bits LoadDatabase reads from the file,
// and report as Nonzero and Mass the served view's own: the opened file's
// count and mass, and the MVCC view's snapshot's, to the bit.
func TestStreamedShardMatchesPartition(t *testing.T) {
	dense, _ := savedTemperature(t)
	sparse := savedSparseTemperature(t)
	densePath, sparsePath := savedFile(t, "dense.wvls", dense), savedFile(t, "sparse.wvls", sparse)
	opened := func(path string) func(t *testing.T) *Database {
		return func(t *testing.T) *Database {
			db, err := OpenLayout(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = db.Close() })
			return db
		}
	}
	// The MVCC view: the sparse file loaded, six writes applied; what
	// LoadDatabase gives for it is read back from the version Save pins.
	written, err := LoadDatabase(bytes.NewReader(sparse))
	if err != nil {
		t.Fatal(err)
	}
	if err := written.EnableMVCC(MVCCConfig{DisableAutoCompact: true}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for b := 0; b < 6; b++ {
		var coords []int
		for _, n := range written.Schema().Sizes {
			coords = append(coords, rng.Intn(n))
		}
		if _, err := written.Apply(context.Background(), NewWriteBatch().Add(coords, float64(1+b))); err != nil {
			t.Fatal(err)
		}
	}
	var mvccFile bytes.Buffer
	if err := written.Save(&mvccFile); err != nil {
		t.Fatal(err)
	}

	for _, in := range []struct {
		name string
		file []byte
		open func(t *testing.T) *Database
	}{
		{"dense", dense, opened(densePath)},
		{"sparse", sparse, opened(sparsePath)},
		{"mvcc", mvccFile.Bytes(), func(*testing.T) *Database { return written }},
	} {
		t.Run(in.name, func(t *testing.T) {
			ref, err := LoadDatabase(bytes.NewReader(in.file))
			if err != nil {
				t.Fatal(err)
			}
			keys := make([]int, ref.Schema().Cells())
			for k := range keys {
				keys[k] = k
			}
			want := make([]float64, len(keys))
			storage.BatchGet(ref.store, keys, want)
			for _, count := range []int{1, 2, 4} {
				for index := 0; index < count; index++ {
					db := in.open(t)
					wantNonzero := db.NonzeroCoefficients()
					wantMass, err := db.CoefficientMass()
					if err != nil {
						t.Fatal(err)
					}
					if db.MVCCEnabled() {
						sn, err := db.Snapshot()
						if err != nil {
							t.Fatal(err)
						}
						wantNonzero = sn.NonzeroCoefficients()
						if wantMass, err = sn.CoefficientMass(); err != nil {
							t.Fatal(err)
						}
						sn.Release()
					}
					ss, err := db.NewShardServer(index, count, nil)
					if err != nil {
						t.Fatal(err)
					}
					if ss.Nonzero() != int64(wantNonzero) || math.Float64bits(ss.Mass()) != math.Float64bits(wantMass) {
						t.Fatalf("shard %d/%d reports (%d, %v); the view it serves has (%d, %v)",
							index, count, ss.Nonzero(), ss.Mass(), wantNonzero, wantMass)
					}
					var owned []int
					for k := range want {
						if storage.ShardOf(k, count) == index {
							owned = append(owned, k)
						}
					}
					got := servedValues(t, ss, owned)
					for i, k := range owned {
						if math.Float64bits(got[i]) != math.Float64bits(want[k]) {
							t.Fatalf("shard %d/%d serves key %d as %v, LoadDatabase reads %v", index, count, k, got[i], want[k])
						}
					}
				}
			}
		})
	}

}

// servedValues serves ss on a loopback listener and asks it, through the
// shard wire client, for keys a few thousand at a time.
func servedValues(t *testing.T, ss *ShardServer, keys []int) []float64 {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = ss.Serve(ln) }()
	defer func() { _ = ss.Close() }()
	remote := dist.NewRemoteStore(ln.Addr().String(), dist.ClientConfig{})
	defer func() { _ = remote.Close() }()
	got := make([]float64, len(keys))
	for lo := 0; lo < len(keys); lo += 4096 {
		hi := min(lo+4096, len(keys))
		if err := remote.BatchGetCtx(context.Background(), keys[lo:hi], got[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	return got
}
