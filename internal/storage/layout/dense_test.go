package layout

import (
	"cmp"
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

// TestWritePicksSmallerShape pins the rule on both sides of the crossover,
// plain and quantized: the file Write leaves is the smaller of the two sizes
// it reports, and its shape is the one it names.
func TestWritePicksSmallerShape(t *testing.T) {
	const cells = 1 << 14
	for _, tc := range []struct {
		density float64
		dense   bool
	}{{0.1, false}, {0.3, false}, {0.75, true}, {0.95, true}} {
		keys, values := denseCoefficients(cells, tc.density, 1)
		for _, quantize := range []bool{false, true} {
			path := filepath.Join(t.TempDir(), "w.wvls")
			c, err := Write(path, keys, values, WriteOptions{Cells: cells, Quantize: quantize})
			if err != nil {
				t.Fatal(err)
			}
			if c.Dense != tc.dense || c.Dense != (c.DenseBytes < c.SparseBytes) {
				t.Fatalf("density %.2f quantized %v: Write weighed %+v, want dense %v", tc.density, quantize, c, tc.dense)
			}
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if want := min(c.DenseBytes, c.SparseBytes); info.Size() != want {
				t.Fatalf("density %.2f quantized %v: file is %d bytes, want the smaller candidate's %d (%+v)",
					tc.density, quantize, info.Size(), want, c)
			}
			s, err := Open(path, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if s.Dense() != tc.dense || s.Stats().Dense != tc.dense {
				t.Fatalf("density %.2f quantized %v: opened Dense() = %v, want %v", tc.density, quantize, s.Dense(), tc.dense)
			}
			_ = s.Close()
		}
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

// TestDenseRoundtrip pins the dense read path on both tiers, plain and
// quantized: every cell, zero or not, reads bit-identical through
// BatchGetCtx in any order, keys outside the domain fail alone, the slot is
// the key, enumeration yields exactly the nonzero set, the header's count
// and mass are the writer's, and each block is checked once.
func TestDenseRoundtrip(t *testing.T) {
	const cells = 5000 // not a multiple of the block size: a short last block
	keys, values := denseCoefficients(cells, 0.8, 3)
	var mass float64
	for _, v := range values {
		mass += math.Abs(v)
	}
	ctx := context.Background()
	for _, quantize := range []bool{false, true} {
		path := writeDenseLayout(t, keys, values, WriteOptions{Cells: cells, BlockSize: 256, Quantize: quantize})
		want := make([]float64, cells)
		for i, k := range keys {
			if want[k] = values[i]; quantize {
				want[k] = float64(float32(values[i]))
			}
		}
		orders := [][]int{make([]int, cells), make([]int, cells), rand.New(rand.NewSource(4)).Perm(cells)}
		for k := 0; k < cells; k++ {
			orders[0][k], orders[1][k] = k, cells-1-k
		}
		for _, opts := range []Options{{}, {DisableMmap: true}} {
			s, err := Open(path, opts)
			if err != nil {
				t.Fatal(err)
			}
			if opts.DisableMmap && s.Mmapped() {
				t.Fatal("DisableMmap ignored")
			}
			name := func() string {
				if s.Mmapped() {
					return "mmap"
				}
				return "pread"
			}()
			if !s.Dense() || s.Quantized() != quantize || s.HotCount() != 0 || s.Blocks() != (cells+255)/256 {
				t.Fatalf("%s: dense %v quantized %v hot %d blocks %d", name, s.Dense(), s.Quantized(), s.HotCount(), s.Blocks())
			}
			if s.NonzeroCount() != len(keys) || s.Size() != cells || s.Mass() != mass {
				t.Fatalf("%s: NonzeroCount %d Size %d Mass %v, want %d, %d, %v", name, s.NonzeroCount(), s.Size(), s.Mass(), len(keys), cells, mass)
			}
			for _, j := range []int{0, 1, cells / 2, cells - 1} {
				if s.KeyOfSlot(j) != j {
					t.Fatalf("%s: KeyOfSlot(%d) = %d", name, j, s.KeyOfSlot(j))
				}
			}
			for _, order := range orders {
				dst := make([]float64, len(order))
				if err := s.BatchGetCtx(ctx, order, dst); err != nil {
					t.Fatalf("%s: BatchGetCtx: %v", name, err)
				}
				for i, k := range order {
					if math.Float64bits(dst[i]) != math.Float64bits(want[k]) {
						t.Fatalf("%s: cell %d = %v, want %v", name, k, dst[i], want[k])
					}
				}
			}
			probe := []int{-1, 0, cells, cells - 1, 7}
			dst := make([]float64, len(probe))
			var be *storage.BatchError
			if err := s.BatchGetCtx(ctx, probe, dst); !errors.As(err, &be) ||
				len(be.Failed) != 2 || be.Failed[0].Index != 0 || be.Failed[1].Index != 2 {
				t.Fatalf("%s: out-of-range probe = %v, want positions 0 and 2 failed", name, err)
			}
			for _, i := range []int{1, 3, 4} {
				if dst[i] != want[probe[i]] {
					t.Fatalf("%s: cell %d = %v beside out-of-range keys, want %v", name, probe[i], dst[i], want[probe[i]])
				}
			}
			got := map[int]float64{}
			s.ForEachNonzero(func(k int, v float64) bool {
				got[k] = v
				return true
			})
			for k, v := range want {
				if g, ok := got[k]; ok != (v != 0) || g != v {
					t.Fatalf("%s: ForEachNonzero gave cell %d = %v (present %v), want %v", name, k, g, ok, v)
				}
			}
			st := s.Stats()
			if st.Slots != cells || st.HotHits != 0 || st.HintHits != 0 {
				t.Fatalf("%s: stats %+v: want %d slots, no hot or hint hits", name, st, cells)
			}
			if st.VerifiedBlocks != s.Blocks() || st.BlockLoads != int64(s.Blocks()) {
				t.Fatalf("%s: %d blocks verified in %d checks, want each of %d checked once", name, st.VerifiedBlocks, st.BlockLoads, s.Blocks())
			}
			_ = s.Close()
		}
	}
}

// TestDenseCorruptBlock pins the degradation contract on the dense shape:
// one flipped byte fails exactly its block's cells, zeros included, with a
// *storage.BatchError on both tiers, every other cell reads true, and a
// second read fails again — a block that failed is never marked verified.
func TestDenseCorruptBlock(t *testing.T) {
	const cells, blockSize, victim = 4096, 128, 7
	keys, values := denseCoefficients(cells, 0.8, 5)
	want := make([]float64, cells)
	for i, k := range keys {
		want[k] = values[i]
	}
	path := writeDenseLayout(t, keys, values, WriteOptions{Cells: cells, BlockSize: blockSize})
	s, err := Open(path, Options{})
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
	for _, opts := range []Options{{}, {DisableMmap: true}} {
		s, err := Open(path, opts)
		if err != nil {
			t.Fatalf("Open after block corruption should succeed (header intact): %v", err)
		}
		for pass := 0; pass < 2; pass++ {
			dst := make([]float64, cells)
			var be *storage.BatchError
			if err := s.BatchGetCtx(context.Background(), all, dst); !errors.As(err, &be) {
				t.Fatalf("mmap %v pass %d: BatchGetCtx = %v, want *BatchError", s.Mmapped(), pass, err)
			}
			failed := map[int]bool{}
			for _, ke := range be.Failed {
				failed[ke.Key] = true
			}
			for k := range all {
				inVictim := k/blockSize == victim
				switch {
				case inVictim != failed[k]:
					t.Fatalf("mmap %v pass %d: cell %d failed %v, want %v (block %d is corrupt)", s.Mmapped(), pass, k, failed[k], inVictim, victim)
				case !inVictim && dst[k] != want[k]:
					t.Fatalf("mmap %v pass %d: cell %d = %v, want %v", s.Mmapped(), pass, k, dst[k], want[k])
				}
			}
		}
		st := s.Stats()
		if st.BlockLoadFailures != 2 {
			t.Fatalf("mmap %v: %d failed block checks over two passes, want 2", s.Mmapped(), st.BlockLoadFailures)
		}
		if st.VerifiedBlocks != s.Blocks()-1 {
			t.Fatalf("mmap %v: %d of %d blocks verified, want all but the corrupt one", s.Mmapped(), st.VerifiedBlocks, s.Blocks())
		}
		_ = s.Close()
	}
}

// TestDensePreadScheduleDrain pins what a pread drain of a dense file costs
// in the engine's order — |value| descending, key ascending, which is
// random key order, so nearly every run is one key long: each block is read
// whole once, for its one check, and every other read is one run's words.
// The file's bytes are read about twice, not once per key.
func TestDensePreadScheduleDrain(t *testing.T) {
	const cells, blockSize = 1 << 14, 256
	keys, values := denseCoefficients(cells, 0.9, 7)
	path := writeDenseLayout(t, keys, values, WriteOptions{Cells: cells, BlockSize: blockSize})
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(math.Abs(values[b]), math.Abs(values[a])); c != 0 {
			return c
		}
		return cmp.Compare(keys[a], keys[b])
	})
	s, err := Open(path, Options{DisableMmap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var (
		dst  = make([]float64, 64)
		runs int64
	)
	for lo := 0; lo < len(order); lo += len(dst) {
		batch := make([]int, 0, len(dst))
		for _, i := range order[lo:min(lo+len(dst), len(order))] {
			batch = append(batch, keys[i])
		}
		for i := range batch {
			if i == 0 || batch[i] != batch[i-1]+1 || batch[i]%blockSize == 0 {
				runs++
			}
		}
		if err := s.BatchGetCtx(context.Background(), batch, dst[:len(batch)]); err != nil {
			t.Fatal(err)
		}
		for q, i := range order[lo:min(lo+len(dst), len(order))] {
			if dst[q] != values[i] {
				t.Fatalf("key %d = %v, want %v", keys[i], dst[q], values[i])
			}
		}
	}
	st := s.Stats()
	if st.BlockLoads != int64(s.Blocks()) || st.VerifiedBlocks != s.Blocks() {
		t.Fatalf("%d block checks, %d verified: want each of %d blocks read whole once", st.BlockLoads, st.VerifiedBlocks, s.Blocks())
	}
	if st.Preads != runs {
		t.Fatalf("%d preads for %d runs: want one pread a run", st.Preads, runs)
	}
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
		if s, err := Open(bad, Options{}); err == nil {
			_ = s.Close()
			t.Fatalf("Open accepted %s with its dense flag flipped", filepath.Base(path))
		}
	}
}
