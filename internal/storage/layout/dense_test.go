package layout

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/storage"
)

// denseCoefficients gives each of cells a nonzero value with probability
// density; keys come out ascending.
func denseCoefficients(cells int, density float64, seed int64) (keys []int, values []float64) {
	rng := rand.New(rand.NewSource(seed))
	for k := 0; k < cells; k++ {
		if rng.Float64() < density {
			keys = append(keys, k)
			values = append(values, rng.NormFloat64()*math.Exp(rng.NormFloat64()*3))
		}
	}
	return keys, values
}

// writeDenseLayout writes a layout that must come out dense.
func writeDenseLayout(t *testing.T, keys []int, values []float64, opts WriteOptions) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "dense.wvls")
	if _, err := Write(path, keys, values, opts); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if !fileDense(t, path) {
		t.Fatalf("%d coefficients over %d cells were written sparse; this test needs the dense shape", len(keys), opts.Cells)
	}
	return path
}

// TestWritePicksSmallerShape pins the rule on both sides of the crossover:
// the file Write leaves is the smaller of the two sizes it reports, and its
// shape is the one it names.
func TestWritePicksSmallerShape(t *testing.T) {
	const cells = 1 << 14
	for _, tc := range []struct {
		density float64
		dense   bool
	}{{0.1, false}, {0.3, false}, {0.75, true}, {0.95, true}} {
		keys, values := denseCoefficients(cells, tc.density, 1)
		path := filepath.Join(t.TempDir(), "w.wvls")
		c, err := Write(path, keys, values, WriteOptions{Cells: cells})
		if err != nil {
			t.Fatal(err)
		}
		if c.Dense != tc.dense || c.Dense != (c.DenseBytes < c.SparseBytes) {
			t.Fatalf("density %.2f: Write weighed %+v, want dense %v", tc.density, c, tc.dense)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := min(c.DenseBytes, c.SparseBytes); info.Size() != want {
			t.Fatalf("density %.2f: file is %d bytes, want the smaller candidate's %d (%+v)",
				tc.density, info.Size(), want, c)
		}
		s, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if s.Dense() != tc.dense || s.Stats().Dense != tc.dense {
			t.Fatalf("density %.2f: opened Dense() = %v, want %v", tc.density, s.Dense(), tc.dense)
		}
		_ = s.Close()
	}
}

// TestFamiliesForceSparse pins that supplied families select the sparse
// shape even where the dense file would be smaller: they ask for a physical
// schedule order, which only the sparse shape has.
func TestFamiliesForceSparse(t *testing.T) {
	const cells = 4096
	keys, values := denseCoefficients(cells, 0.9, 2)
	opts := WriteOptions{Cells: cells, Families: []FamilyOrder{{Label: "f", Fingerprint: "f", Keys: keys[:10]}}}
	c, err := Write(filepath.Join(t.TempDir(), "f.wvls"), keys, values, opts)
	if err != nil {
		t.Fatal(err)
	}
	if c.Dense || c.DenseBytes >= c.SparseBytes {
		t.Fatalf("Write weighed %+v: want a smaller dense candidate that is not chosen", c)
	}
	writeTestLayout(t, keys, values, opts)
}

// TestDenseRoundtrip pins the dense read path on both tiers: every cell,
// zero or not, reads bit-identical through BatchGetCtx in any order, keys
// outside the domain fail alone, the slot is the key, enumeration yields
// exactly the nonzero set, the header's count and mass are the writer's, and
// each block is checked once.
func TestDenseRoundtrip(t *testing.T) {
	const cells = 5000 // not a multiple of the block size: a short last block
	keys, values := denseCoefficients(cells, 0.8, 3)
	var mass float64
	for _, v := range values {
		mass += math.Abs(v)
	}
	ctx := context.Background()
	path := writeDenseLayout(t, keys, values, WriteOptions{Cells: cells, BlockSize: 256})
	want := make([]float64, cells)
	for i, k := range keys {
		want[k] = values[i]
	}
	orders := [][]int{make([]int, cells), make([]int, cells), rand.New(rand.NewSource(4)).Perm(cells)}
	for k := 0; k < cells; k++ {
		orders[0][k], orders[1][k] = k, cells-1-k
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Dense() || s.Blocks() != (cells+255)/256 {
		t.Fatalf("dense %v blocks %d", s.Dense(), s.Blocks())
	}
	if s.NonzeroCount() != len(keys) || s.Size() != cells || s.Mass() != mass {
		t.Fatalf("NonzeroCount %d Size %d Mass %v, want %d, %d, %v", s.NonzeroCount(), s.Size(), s.Mass(), len(keys), cells, mass)
	}
	for _, j := range []int{0, 1, cells / 2, cells - 1} {
		if s.KeyOfSlot(j) != j {
			t.Fatalf("KeyOfSlot(%d) = %d", j, s.KeyOfSlot(j))
		}
	}
	for _, order := range orders {
		dst := make([]float64, len(order))
		if err := s.BatchGetCtx(ctx, order, dst); err != nil {
			t.Fatalf("BatchGetCtx: %v", err)
		}
		for i, k := range order {
			if math.Float64bits(dst[i]) != math.Float64bits(want[k]) {
				t.Fatalf("cell %d = %v, want %v", k, dst[i], want[k])
			}
		}
	}
	probe := []int{-1, 0, cells, cells - 1, 7}
	dst := make([]float64, len(probe))
	var be *storage.BatchError
	if err := s.BatchGetCtx(ctx, probe, dst); !errors.As(err, &be) ||
		len(be.Failed) != 2 || be.Failed[0].Index != 0 || be.Failed[1].Index != 2 {
		t.Fatalf("out-of-range probe = %v, want positions 0 and 2 failed", err)
	}
	for _, i := range []int{1, 3, 4} {
		if dst[i] != want[probe[i]] {
			t.Fatalf("cell %d = %v beside out-of-range keys, want %v", probe[i], dst[i], want[probe[i]])
		}
	}
	got := map[int]float64{}
	if err := s.Walk(func(k int, v float64) bool {
		got[k] = v
		return true
	}); err != nil {
		t.Fatalf("Walk: %v", err)
	}
	for k, v := range want {
		if g, ok := got[k]; ok != (v != 0) || g != v {
			t.Fatalf("Walk gave cell %d = %v (present %v), want %v", k, g, ok, v)
		}
	}
	st := s.Stats()
	if st.Slots != cells {
		t.Fatalf("stats %+v: want %d slots", st, cells)
	}
	if st.VerifiedBlocks != s.Blocks() || st.BlockLoads != int64(s.Blocks()) {
		t.Fatalf("%d blocks verified in %d checks, want each of %d checked once", st.VerifiedBlocks, st.BlockLoads, s.Blocks())
	}
	_ = s.Close()
}

// TestDenseCorruptBlock pins the degradation contract on the dense shape:
// one flipped byte fails exactly its block's cells, zeros included, with a
// *storage.BatchError, every other cell reads true, and a
// second read fails again — a block that failed is never marked verified.
func TestDenseCorruptBlock(t *testing.T) {
	const cells, blockSize, victim = 4096, 128, 7
	keys, values := denseCoefficients(cells, 0.8, 5)
	want := make([]float64, cells)
	for i, k := range keys {
		want[k] = values[i]
	}
	path := writeDenseLayout(t, keys, values, WriteOptions{Cells: cells, BlockSize: blockSize})
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	ref := s.BlockExtent(victim)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[ref.Off+int64(ref.Len)/2] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	all := make([]int, cells)
	for k := range all {
		all[k] = k
	}
	s, err = Open(path)
	if err != nil {
		t.Fatalf("Open after block corruption should succeed (header intact): %v", err)
	}
	for pass := 0; pass < 2; pass++ {
		dst := make([]float64, cells)
		var be *storage.BatchError
		if err := s.BatchGetCtx(context.Background(), all, dst); !errors.As(err, &be) {
			t.Fatalf("pass %d: BatchGetCtx = %v, want *BatchError", pass, err)
		}
		failed := map[int]bool{}
		for _, ke := range be.Failed {
			failed[ke.Key] = true
		}
		for k := range all {
			inVictim := k/blockSize == victim
			switch {
			case inVictim != failed[k]:
				t.Fatalf("pass %d: cell %d failed %v, want %v (block %d is corrupt)", pass, k, failed[k], inVictim, victim)
			case !inVictim && dst[k] != want[k]:
				t.Fatalf("pass %d: cell %d = %v, want %v", pass, k, dst[k], want[k])
			}
		}
	}
	st := s.Stats()
	if st.BlockLoadFailures != 2 {
		t.Fatalf("%d failed block checks over two passes, want 2", st.BlockLoadFailures)
	}
	if st.VerifiedBlocks != s.Blocks()-1 {
		t.Fatalf("%d of %d blocks verified, want all but the corrupt one", st.VerifiedBlocks, s.Blocks())
	}
	_ = s.Close()
}

// TestDenseFlagFlipRejected pins that the shape flag is not trusted alone:
// flipping it on a dense file or on a sparse one is rejected at Open.
func TestDenseFlagFlipRejected(t *testing.T) {
	const cells = 4096
	keys, values := denseCoefficients(cells, 0.8, 6)
	dense := writeDenseLayout(t, keys, values, WriteOptions{Cells: cells})
	keys, values = denseCoefficients(cells, 0.1, 6)
	sparse := writeTestLayout(t, keys, values, WriteOptions{Cells: cells})
	for _, path := range []string{dense, sparse} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[6] ^= flagDense // the low byte of the little-endian flags
		bad := filepath.Join(t.TempDir(), "flipped.wvls")
		if err := os.WriteFile(bad, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := Open(bad); err == nil {
			_ = s.Close()
			t.Fatalf("Open accepted %s with its dense flag flipped", filepath.Base(path))
		}
	}
}
