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
	if err := writeFile(path, keys, values, opts); err != nil {
		t.Fatalf("writing the layout: %v", err)
	}
	if !fileDense(t, path) {
		t.Fatalf("%d coefficients over %d cells were written sparse; this test needs the dense shape", len(keys), opts.Cells)
	}
	return path
}

// shapeSize is the size of the file of nonzero coefficients over cells
// in the given shape, with the default block size and no meta: the
// arithmetic on the header a reader does.
func shapeSize(cells, nonzero int, dense bool) int64 {
	g := geometry{cells: cells, nonzero: nonzero, blockSize: DefaultBlockSize}
	if dense {
		g.flags = flagDense
	}
	g.derive(int64(preludeSize + len(encodeHeaderBlob(&g, nil))))
	return g.fileSize
}

// TestWriteDenseFromHalfFull pins the shape rule at its boundary: exactly
// half the cells nonzero is written dense, one nonzero fewer sparse, and
// far from it each side keeps its shape. The rule is a count: at half full
// the sparse file would be the smaller one, and it is still not written.
// The file opens as the shape written, at that shape's size. Three keys
// over 2⁶⁰ and 2⁶² cells make a sparse file that opens and serves them:
// a dense file of such a domain is not even priced.
func TestWriteDenseFromHalfFull(t *testing.T) {
	const cells = 1 << 12
	keys, values := denseCoefficients(cells, 1, 1) // every cell nonzero
	perm := rand.New(rand.NewSource(1)).Perm(cells)
	pick := func(nonzero int) ([]int, []float64) {
		k, v := make([]int, nonzero), make([]float64, nonzero)
		for i, p := range perm[:nonzero] { // any nonzero cells, not a prefix
			k[i], v[i] = keys[p], values[p]
		}
		return k, v
	}
	huge := func(cells int) ([]int, []float64) {
		return []int{0, cells / 3, cells - 1}, []float64{1.5, -2.25, 3}
	}
	for _, tc := range []struct {
		cells, nonzero int
		dense          bool
	}{{cells, cells / 2, true}, {cells, cells/2 - 1, false}, {cells, cells / 10, false}, {cells, cells * 3 / 4, true}, {cells, cells, true},
		{1 << 60, 3, false}, {1 << 62, 3, false}} {
		k, v := pick(min(tc.nonzero, cells))
		if tc.cells != cells {
			k, v = huge(tc.cells)
		}
		path := filepath.Join(t.TempDir(), "w.wvls")
		if err := writeFile(path, k, v, WriteOptions{Cells: tc.cells}); err != nil {
			t.Fatalf("%d of %d cells nonzero: %v", tc.nonzero, tc.cells, err)
		}
		if tc.cells == cells && tc.nonzero == cells/2 && shapeSize(cells, tc.nonzero, false) >= shapeSize(cells, tc.nonzero, true) {
			t.Fatalf("half full: the sparse file is no smaller than the dense one: the boundary no longer shows the rule is a count")
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := shapeSize(tc.cells, tc.nonzero, tc.dense); info.Size() != want {
			t.Fatalf("%d of %d cells nonzero: file is %d bytes, want the dense=%v shape's %d", tc.nonzero, tc.cells, info.Size(), tc.dense, want)
		}
		s, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if s.Dense() != tc.dense || s.Stats().Dense != tc.dense || s.Size() != tc.cells {
			t.Fatalf("%d of %d cells nonzero: opened Dense() = %v over %d cells, want %v", tc.nonzero, tc.cells, s.Dense(), s.Size(), tc.dense)
		}
		got := make([]float64, len(k))
		if err := s.BatchGetCtx(context.Background(), k, got); err != nil {
			t.Fatalf("%d of %d cells nonzero: %v", tc.nonzero, tc.cells, err)
		}
		for i := range k {
			if got[i] != v[i] {
				t.Fatalf("%d of %d cells nonzero: key %d serves %v, written %v", tc.nonzero, tc.cells, k[i], got[i], v[i])
			}
		}
		_ = s.Close()
	}
}

// TestDenseRoundtrip pins the dense read path on both tiers: every cell,
// zero or not, reads bit-identical through BatchGetCtx in any order, keys
// outside the domain fail alone, enumeration yields
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
