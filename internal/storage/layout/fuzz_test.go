package layout

import (
	"context"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/storage"
)

// fuzzSeedLayout builds a small valid layout file of the given shape and
// returns its bytes, so the fuzzer starts from well-formed inputs and
// mutates toward the interesting boundary: files that are almost valid. The
// n keys step by 3 modulo the domain, one in seven of them 0: 48 keys, 41
// nonzero, make a directory of 1-byte lows over the default 256 cells; 100
// keys, 86 nonzero, one rank record over 100 cells.
func fuzzSeedLayout(f *testing.F, shape string, n int, opts WriteOptions) []byte {
	f.Helper()
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.wvls")
	if opts.Cells == 0 {
		opts.Cells = 256
	}
	keys := make([]int, 0, n)
	vals := make([]float64, 0, n)
	for k := 0; k < n; k++ {
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
	if g := (geometry{flags: binary.LittleEndian.Uint16(blob[6:8])}); g.shape() != shape {
		f.Fatalf("seed %+v written in the %s shape, want %s", opts, g.shape(), shape)
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
	f.Add(fuzzSeedLayout(f, "directory", 48, WriteOptions{BlockSize: 16}))
	f.Add(withReservedWord(fuzzSeedLayout(f, "directory", 48, WriteOptions{BlockSize: 16}), hotWordOff, 8, 8))
	f.Add(fuzzSeedLayout(f, "directory", 48, WriteOptions{BlockSize: 4}))
	f.Add(fuzzSeedLayout(f, "directory", 48, WriteOptions{
		BlockSize: 8,
		Meta: &Meta{
			FilterName: "db4",
			TupleCount: 3,
			Names:      []string{"x", "y"},
			Sizes:      []int{16, 16},
		},
	}))
	f.Add(fuzzSeedLayout(f, "rank", 100, WriteOptions{Cells: 100, BlockSize: 16}))
	f.Add(fuzzSeedLayout(f, "rank", 100, WriteOptions{Cells: 100, BlockSize: 8}))
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
		seed := fuzzSeedLayout(f, "directory", 48, WriteOptions{Cells: tc.cells, BlockSize: 16})
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
	// the offsets derive computes cannot overflow. A directory file of a few
	// keys over 2^62 and 2^63−1 cells, the 256-cell directory seed and the
	// 100-cell rank seed with their cells word rewritten to each (the header
	// checksum fixed), and each of those with the rank flag flipped are
	// refused or open with every offset in order. A rank header over such a
	// domain asks for 2^53 records or more: it must be refused by the
	// records' size, before any offset is derived.
	small := fuzzSeedLayout(f, "directory", 48, WriteOptions{BlockSize: 16})
	smallRank := fuzzSeedLayout(f, "rank", 100, WriteOptions{Cells: 100, BlockSize: 16})
	for _, cells := range []int{1 << 62, math.MaxInt64} {
		headers := [][]byte{
			fuzzSeedLayout(f, "directory", 48, WriteOptions{Cells: cells, BlockSize: 16}),
			withReservedWord(small, preludeSize, 8, uint64(cells)),
			withReservedWord(smallRank, preludeSize, 8, uint64(cells)),
		}
		for _, h := range headers {
			flipped := slices.Clone(h)
			binary.LittleEndian.PutUint16(flipped[6:8], binary.LittleEndian.Uint16(flipped[6:8])^flagRank)
			for _, seed := range [][]byte{h, flipped} {
				g, _, err := readHeader(seed)
				if err == nil {
					checkOffsets(f, g, int64(len(seed)))
				} else if seed[6]&flagRank != 0 && !strings.Contains(err.Error(), "rank records") {
					f.Fatalf("a rank header over %d cells was refused by %v, not by its records' size", cells, err)
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
	offs := []int64{preludeSize, g.rankOff, g.dirOff, g.lowsOff, g.blocksOff, g.crcsOff, g.fileSize}
	for i := 1; i < len(offs); i++ {
		if offs[i] < offs[i-1] {
			t.Fatalf("cells %d, nonzero %d, %s shape: section offsets %v out of order", g.cells, g.nonzero, g.shape(), offs)
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
