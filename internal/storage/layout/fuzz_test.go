package layout

import (
	"context"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/storage"
)

// fuzzSeedLayout builds a small valid layout file of the given shape and
// returns its bytes, so the fuzzer starts from well-formed inputs and
// mutates toward the interesting boundary: files that are almost valid. The
// 48 keys step by 3 modulo the domain, 41 of them nonzero: sparse over the
// default 256 cells, dense over 56.
func fuzzSeedLayout(f *testing.F, dense bool, opts WriteOptions) []byte {
	f.Helper()
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.wvls")
	if opts.Cells == 0 {
		opts.Cells = 256
	}
	keys := make([]int, 0, 48)
	vals := make([]float64, 0, 48)
	for k := 0; k < 48; k++ {
		keys = append(keys, k*3%opts.Cells)
		vals = append(vals, float64(k%7)-3.0)
	}
	if _, err := Write(path, keys, vals, opts); err != nil {
		f.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	if got := binary.LittleEndian.Uint16(blob[6:8])&flagDense != 0; got != dense {
		f.Fatalf("seed %+v written dense=%v, want %v", opts, got, dense)
	}
	return blob
}

// withHotRegion returns a copy of file whose header announces a hot region
// of hot slots, its header checksum recomputed: the header of a sparse file
// written before every value moved into a block.
func withHotRegion(file []byte, hot uint64) []byte {
	c := slices.Clone(file)
	binary.LittleEndian.PutUint64(c[preludeSize+16:], hot) // after cells and nonzero
	hdrLen := binary.LittleEndian.Uint32(c[8:12])
	binary.LittleEndian.PutUint32(c[12:16], crc32.ChecksumIEEE(c[preludeSize:preludeSize+hdrLen]))
	return c
}

// FuzzOpenLayout pins the hardening contract of the read path: an arbitrary
// byte string presented as a .wvls file either fails Open with an error or
// opens into a store whose entire fallible surface serves reads without
// panicking — corrupted blocks surface as per-key errors, never as crashes
// or out-of-bounds access.
func FuzzOpenLayout(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("WVLS"))
	f.Add([]byte("WVFS\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Add(fuzzSeedLayout(f, false, WriteOptions{BlockSize: 16}))
	f.Add(withHotRegion(fuzzSeedLayout(f, false, WriteOptions{BlockSize: 16}), 8))
	f.Add(fuzzSeedLayout(f, false, WriteOptions{BlockSize: 4}))
	f.Add(fuzzSeedLayout(f, false, WriteOptions{
		BlockSize: 8,
		Meta: &Meta{
			FilterName: "db4",
			TupleCount: 3,
			Names:      []string{"x", "y"},
			Sizes:      []int{16, 16},
		},
		Families: []FamilyOrder{{Label: "f0", Fingerprint: "fp0", Keys: []int{6, 3, 0}}},
	}))
	f.Add(fuzzSeedLayout(f, true, WriteOptions{Cells: 56, BlockSize: 16}))
	f.Add(fuzzSeedLayout(f, true, WriteOptions{Cells: 56, BlockSize: 8}))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wvls")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path)
		if err != nil {
			return // rejected: the contract for malformed input
		}
		fuzzExercise(t, s)
		if err := s.Close(); err != nil {
			t.Fatalf("Close after successful open: %v", err)
		}
	})
}

// fuzzExercise drives every fallible read surface of an opened store. The
// header CRC protects the geometry, but the index and the block payloads
// are only checked on access — so a mutated file can open fine and still
// carry garbage. All of that must come back as errors. The keys are asked
// for in slot order, which serves runs, and ascending and descending too.
// The key-order walk, which reads each value by its slot, must return an
// error or hand over ascending, in-range, nonzero keys.
func fuzzExercise(t *testing.T, s *Store) {
	t.Helper()
	ctx := context.Background()
	_ = s.Stats()
	_ = s.Families()
	_ = s.Meta()
	_ = s.Mass()

	n := s.NonzeroCount()
	if n > 1<<16 {
		n = 1 << 16 // bound the work per input; geometry is attacker-chosen
	}
	keys := make([]int, 0, n+2)
	for j := 0; j < n; j++ {
		keys = append(keys, s.KeyOfSlot(j))
	}
	// Out-of-range and absent keys must be as safe as present ones.
	keys = append(keys, -1, s.Size())

	for _, k := range keys {
		_, _ = storage.GetCtx(ctx, s, k)
	}
	dst := make([]float64, len(keys))
	_ = s.BatchGetCtx(ctx, keys, dst)
	slices.Sort(keys)
	_ = s.BatchGetCtx(ctx, keys, dst)
	slices.Reverse(keys)
	_ = s.BatchGetCtx(ctx, keys, dst)

	last := -1
	_ = s.Walk(func(k int, v float64) bool {
		if k <= last || k >= s.Size() || v == 0 {
			t.Fatalf("Walk handed over key %d = %v after key %d, domain %d", k, v, last, s.Size())
		}
		last = k
		return true
	})
}
