package layout

import (
	"context"
	"encoding/binary"
	"math"
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
// default 256 cells, with 1-byte lows, dense over 56.
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
	if err := writeFile(path, keys, vals, opts); err != nil {
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
	f.Add(withReservedWord(fuzzSeedLayout(f, false, WriteOptions{BlockSize: 16}), hotWordOff, 8, 8))
	f.Add(fuzzSeedLayout(f, false, WriteOptions{BlockSize: 4}))
	f.Add(fuzzSeedLayout(f, false, WriteOptions{
		BlockSize: 8,
		Meta: &Meta{
			FilterName: "db4",
			TupleCount: 3,
			Names:      []string{"x", "y"},
			Sizes:      []int{16, 16},
		},
	}))
	f.Add(fuzzSeedLayout(f, true, WriteOptions{Cells: 56, BlockSize: 16}))
	f.Add(fuzzSeedLayout(f, true, WriteOptions{Cells: 56, BlockSize: 8}))
	// The sparse files of two older writers: values in |value|-descending
	// slots, whose family record sits in the reserved words, and keys in a
	// delta stream, whose length is the last reserved word.
	for _, name := range []string{"sparse_by_value.wvls", "sparse_key_stream.wvls"} {
		old, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(old)
	}
	// The same 41 keys with 1-, 3- and 8-byte lows: a domain of 2^8 holds
	// them in one bucket of 1-byte lows, one of 2^24 in one of 3-byte lows,
	// and one of 2^62 keeps whole keys, a bucket shift of 64.
	for _, tc := range []struct{ cells, lowWidth int }{{1 << 8, 1}, {1 << 24, 3}, {1 << 62, 8}} {
		seed := fuzzSeedLayout(f, false, WriteOptions{Cells: tc.cells, BlockSize: 16})
		g, _, err := readHeader(seed)
		if err != nil {
			f.Fatal(err)
		}
		if g.lowWidth != tc.lowWidth {
			f.Fatalf("seed over %d cells: low width %d, want %d", tc.cells, g.lowWidth, tc.lowWidth)
		}
		f.Add(seed)
	}
	// The overflow claim of decodeHeaderBlob: past its plausibility check
	// the offsets derive computes cannot overflow. A sparse file of a few
	// keys over 2^62 and 2^63−1 cells, the 256-cell seed with its cells word
	// rewritten to each (the header checksum fixed), and each of those with
	// the dense flag set are refused or open with every offset in order.
	small := fuzzSeedLayout(f, false, WriteOptions{BlockSize: 16})
	for _, cells := range []int{1 << 62, math.MaxInt64} {
		headers := [][]byte{
			fuzzSeedLayout(f, false, WriteOptions{Cells: cells, BlockSize: 16}),
			withReservedWord(small, preludeSize, 8, uint64(cells)),
		}
		for _, h := range headers {
			dense := slices.Clone(h)
			binary.LittleEndian.PutUint16(dense[6:8], binary.LittleEndian.Uint16(dense[6:8])|flagDense)
			for _, seed := range [][]byte{h, dense} {
				if g, _, err := readHeader(seed); err == nil {
					checkOffsets(f, g, int64(len(seed)))
				}
				f.Add(seed)
			}
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wvls")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path)
		if err != nil {
			return // rejected: the contract for malformed input
		}
		checkOffsets(t, &s.g, int64(len(data)))
		fuzzExercise(t, s)
		if err := s.Close(); err != nil {
			t.Fatalf("Close after successful open: %v", err)
		}
	})
}

// checkOffsets fails unless an accepted header's sections start after the
// prelude, follow one another in order and end at the file's size: no
// offset overflowed.
func checkOffsets(t testing.TB, g *geometry, size int64) {
	t.Helper()
	offs := []int64{preludeSize, g.dirOff, g.lowsOff, g.blocksOff, g.crcsOff, g.fileSize}
	for i := 1; i < len(offs); i++ {
		if offs[i] < offs[i-1] {
			t.Fatalf("cells %d, nonzero %d, dense %v: section offsets %v out of order", g.cells, g.nonzero, g.dense(), offs)
		}
	}
	if g.fileSize != size {
		t.Fatalf("cells %d: header accepted for %d bytes, file is %d", g.cells, g.fileSize, size)
	}
}

// fuzzExercise drives every fallible read surface of an opened store. The
// header CRC protects the geometry, but the index and the block payloads
// are only checked on access — so a mutated file can open fine and still
// carry garbage. All of that must come back as errors. A spread of the
// domain with two out-of-range keys is read first, while no block is
// checked yet; then the key-order walk, which must return an error or hand
// over ascending, in-range, nonzero keys; then the keys it handed over.
// Each set is asked for one at a time, in its order, ascending and
// descending.
func fuzzExercise(t *testing.T, s *Store) {
	t.Helper()
	_ = s.Stats()
	_ = s.Meta()
	_ = s.Mass()

	spread := []int{-1, s.Size()}
	// Every step of Size/256 below Size; the loop stops before a step that
	// would pass Size, whose sum could overflow a domain near 2^63.
	for k, step := 0, max(1, s.Size()/256); k < s.Size(); k += step {
		spread = append(spread, k)
		if k > s.Size()-step {
			break
		}
	}
	fuzzReads(s, spread)

	const limit = 1 << 16 // bound the work per input; geometry is attacker-chosen
	var keys []int
	last := -1
	_ = s.Walk(func(k int, v float64) bool {
		if k <= last || k >= s.Size() || v == 0 {
			t.Fatalf("Walk handed over key %d = %v after key %d, domain %d", k, v, last, s.Size())
		}
		last = k
		keys = append(keys, k)
		return len(keys) < limit
	})
	fuzzReads(s, keys)
}

// fuzzReads asks s for keys one at a time, then as batches in their order,
// ascending and descending; every outcome but a panic is allowed.
func fuzzReads(s *Store, keys []int) {
	ctx := context.Background()
	for _, k := range keys {
		_, _ = storage.GetCtx(ctx, s, k)
	}
	dst := make([]float64, len(keys))
	_ = s.BatchGetCtx(ctx, keys, dst)
	slices.Sort(keys)
	_ = s.BatchGetCtx(ctx, keys, dst)
	slices.Reverse(keys)
	_ = s.BatchGetCtx(ctx, keys, dst)
}
