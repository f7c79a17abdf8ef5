package layout

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
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

// writeRankLayout writes a layout that must come out in the rank shape.
func writeRankLayout(t *testing.T, keys []int, values []float64, opts WriteOptions) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "rank.wvls")
	if err := writeFile(path, keys, values, opts); err != nil {
		t.Fatalf("writing the layout: %v", err)
	}
	if shape := fileShape(t, path); shape != "rank" {
		t.Fatalf("%d coefficients over %d cells were written in the %s shape; this test needs the rank shape", len(keys), opts.Cells, shape)
	}
	return path
}

// shapeSize is the size of the file of nonzero coefficients over cells
// in the given shape, with the default block size and no meta: the
// arithmetic on the header a reader does.
func shapeSize(cells, nonzero int, rank bool) int64 {
	g := geometry{cells: cells, nonzero: nonzero, blockSize: DefaultBlockSize}
	if rank {
		g.flags = flagRank
	}
	g.derive(int64(preludeSize + len(encodeHeaderBlob(&g, nil))))
	return g.fileSize
}

// TestShapeRuleFromCounts pins the shape rule at its crossover, from the
// counts on both sides: over 4096 cells the rank section is 8 records of
// 80 bytes, 640 bytes, and the key directory 40 bytes of counts and a
// byte a key plus a 7-byte pad, so 594 stored keys (14.5 %) are the fewest
// written rank, and 593, where the two indexes tie, are written with a
// directory. At either side the file written is no larger than the other
// shape's, and far from the crossover each side keeps its shape. The file opens as the shape written, at that
// shape's size, and serves its keys. Three keys over 2⁶⁰ and 2⁶² cells
// make a directory file that opens and serves them: rank records for such
// a domain would fit in no file.
func TestShapeRuleFromCounts(t *testing.T) {
	const cells, crossover = 1 << 12, 594
	if !useRank(cells, crossover) || useRank(cells, crossover-1) {
		t.Fatalf("over %d cells the rule writes rank from %d keys on, want from %d", cells, firstRank(cells), crossover)
	}
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
		rank           bool
	}{{cells, crossover, true}, {cells, crossover - 1, false}, {cells, cells / 10, false}, {cells, cells / 2, true},
		{cells, cells * 3 / 4, true}, {cells, cells, true}, {1 << 60, 3, false}, {1 << 62, 3, false}} {
		k, v := pick(min(tc.nonzero, cells))
		if tc.cells != cells {
			k, v = huge(tc.cells)
		}
		path := filepath.Join(t.TempDir(), "w.wvls")
		if err := writeFile(path, k, v, WriteOptions{Cells: tc.cells}); err != nil {
			t.Fatalf("%d of %d cells nonzero: %v", tc.nonzero, tc.cells, err)
		}
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := shapeSize(tc.cells, tc.nonzero, tc.rank); info.Size() != want {
			t.Fatalf("%d of %d cells nonzero: file is %d bytes, want the rank=%v shape's %d", tc.nonzero, tc.cells, info.Size(), tc.rank, want)
		}
		if tc.cells == cells && shapeSize(cells, tc.nonzero, !tc.rank) < info.Size() {
			t.Fatalf("%d of %d cells nonzero: the rank=%v file of %d bytes is the larger shape", tc.nonzero, cells, tc.rank, info.Size())
		}
		s, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		want := map[bool]string{true: "rank", false: "directory"}[tc.rank]
		if s.Shape() != want || s.Stats().Shape != want || s.Size() != tc.cells {
			t.Fatalf("%d of %d cells nonzero: opened shape %q over %d cells, want %q", tc.nonzero, tc.cells, s.Shape(), s.Size(), want)
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

// firstRank is the fewest stored keys over cells the rule writes rank.
func firstRank(cells int) int {
	for n := 0; n <= cells; n++ {
		if useRank(cells, n) {
			return n
		}
	}
	return -1
}

// TestDenseRoundtrip pins the rank read path over dense data, 80 % of the
// cells nonzero: every cell, zero or not, reads bit-identical through
// BatchGetCtx in any order, keys outside the domain fail alone, enumeration
// yields exactly the nonzero set, the header's count and mass are the
// writer's, and each block is checked once.
func TestDenseRoundtrip(t *testing.T) {
	const cells = 5000 // not a multiple of the block size: a short last block
	keys, values := denseCoefficients(cells, 0.8, 3)
	var mass float64
	for _, v := range values {
		mass += math.Abs(v)
	}
	ctx := context.Background()
	path := writeRankLayout(t, keys, values, WriteOptions{Cells: cells, BlockSize: 256})
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
	if s.Shape() != "rank" || s.Blocks() != (len(keys)+255)/256 {
		t.Fatalf("shape %q, %d blocks", s.Shape(), s.Blocks())
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
	if st.Slots != len(keys) {
		t.Fatalf("stats %+v: want %d slots", st, len(keys))
	}
	if st.VerifiedBlocks != s.Blocks() || st.BlockLoads != int64(s.Blocks()) {
		t.Fatalf("%d blocks verified in %d checks, want each of %d checked once", st.VerifiedBlocks, st.BlockLoads, s.Blocks())
	}
	_ = s.Close()
}

// TestDenseCorruptBlock pins the degradation contract on a rank file of
// dense data: one flipped byte fails exactly the stored keys whose slots
// its block holds, with a *storage.BatchError, every other cell — a zero
// beside them too — reads true, and a second read fails again: a block
// that failed is never marked verified.
func TestDenseCorruptBlock(t *testing.T) {
	const cells, blockSize, victim = 4096, 128, 7
	keys, values := denseCoefficients(cells, 0.8, 5)
	want := make([]float64, cells)
	for i, k := range keys {
		want[k] = values[i]
	}
	path := writeRankLayout(t, keys, values, WriteOptions{Cells: cells, BlockSize: blockSize})
	inVictim := map[int]bool{} // keys[i] has slot i: denseCoefficients' keys ascend
	for _, k := range keys[victim*blockSize : (victim+1)*blockSize] {
		inVictim[k] = true
	}
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
			switch {
			case inVictim[k] != failed[k]:
				t.Fatalf("pass %d: cell %d failed %v, want %v (block %d is corrupt)", pass, k, failed[k], inVictim[k], victim)
			case !inVictim[k] && dst[k] != want[k]:
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

// TestDenseFlagFlipRejected pins that the shape flags are not trusted
// alone. The dense flag, the shape of every cell stored that this reader
// no longer reads, set on a rank file or on a directory file, is refused
// by Open and by Load with the rebuild remedy; the rank flag flipped on
// either file is refused at Open.
func TestDenseFlagFlipRejected(t *testing.T) {
	const cells = 4096
	keys, values := denseCoefficients(cells, 0.8, 6)
	rank := writeRankLayout(t, keys, values, WriteOptions{Cells: cells})
	keys, values = denseCoefficients(cells, 0.1, 6)
	directory := writeDirectoryLayout(t, keys, values, WriteOptions{Cells: cells})
	for _, path := range []string{rank, directory} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, flag := range []byte{flagDense, flagRank} {
			mut := slices.Clone(raw)
			mut[6] ^= flag // the low byte of the little-endian flags
			bad := filepath.Join(t.TempDir(), "flipped.wvls")
			if err := os.WriteFile(bad, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(bad)
			if err == nil {
				_ = s.Close()
				t.Fatalf("Open accepted %s with flag %#x flipped", filepath.Base(path), flag)
			}
			if flag == flagDense {
				if !namesRebuild(err) {
					t.Fatalf("%s with the dense flag: Open = %v, want the rebuild remedy", filepath.Base(path), err)
				}
				if _, err := Load(bytes.NewReader(mut)); err == nil || !namesRebuild(err) {
					t.Fatalf("%s with the dense flag: Load = %v, want the rebuild remedy", filepath.Base(path), err)
				}
			}
		}
	}
}

// TestBatchGetAllocatesNothing pins that a retrieval from verified blocks
// puts nothing on the Go heap, in either shape: once Verify has checked
// every block, a BatchGetCtx of stored and absent keys in random order
// makes no allocation. A traced drain's allocation count rests on it.
func TestBatchGetAllocatesNothing(t *testing.T) {
	const cells = 1 << 14
	for _, density := range []float64{0.1, 0.8} {
		keys, values := denseCoefficients(cells, density, 7)
		write := writeDirectoryLayout
		if density > 0.5 {
			write = writeRankLayout
		}
		s, err := Open(write(t, keys, values, WriteOptions{Cells: cells, BlockSize: 256}))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Verify(); err != nil {
			t.Fatal(err)
		}
		order := rand.New(rand.NewSource(8)).Perm(cells)[:4096]
		dst := make([]float64, len(order))
		ctx := context.Background()
		if allocs := testing.AllocsPerRun(20, func() {
			if err := s.BatchGetCtx(ctx, order, dst); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: BatchGetCtx over verified blocks made %v allocations a call, want 0", s.Shape(), allocs)
		}
		_ = s.Close()
	}
}
