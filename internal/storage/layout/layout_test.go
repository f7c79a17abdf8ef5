package layout

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/storage"
)

// testCoefficients builds a deterministic sparse coefficient set.
func testCoefficients(n, cells int, seed int64) (keys []int, values []float64) {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[int]bool, n)
	for len(keys) < n {
		k := rng.Intn(cells)
		if seen[k] {
			continue
		}
		seen[k] = true
		keys = append(keys, k)
		values = append(values, rng.NormFloat64()*math.Exp(rng.NormFloat64()*3))
	}
	return keys, values
}

// writeFile writes the .wvls file for the coefficients at path, as every
// writer of a path does: Encode through WriteFile.
func writeFile(path string, keys []int, values []float64, opts WriteOptions) error {
	return WriteFile(path, func(w io.Writer) error { return Encode(w, keys, values, opts) })
}

// writeDirectoryLayout writes a layout that must come out in the directory
// shape: the tests that use it reach the key directory and the lows.
func writeDirectoryLayout(t *testing.T, keys []int, values []float64, opts WriteOptions) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.wvls")
	if err := writeFile(path, keys, values, opts); err != nil {
		t.Fatalf("writing the layout: %v", err)
	}
	if shape := fileShape(t, path); shape != "directory" {
		t.Fatalf("%d coefficients over %d cells were written in the %s shape; this test needs the directory shape", len(keys), opts.Cells, shape)
	}
	return path
}

// fileShape names the shape a layout file's prelude flags.
func fileShape(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	g := geometry{flags: binary.LittleEndian.Uint16(raw[6:8])}
	return g.shape()
}

// sortedKeys returns keys ascending, in a new slice.
func sortedKeys(keys []int) []int {
	s := slices.Clone(keys)
	slices.Sort(s)
	return s
}

// TestRoundtrip pins that every stored key reads back bit-identically, from
// a mapped file and from the file's bytes read once (Load, of the file or
// of a bytes.Reader, which never maps), and that unknown keys read as zero,
// in both shapes: 5000 keys over 2^16 cells make a directory file, over
// 2^14 a rank file.
func TestRoundtrip(t *testing.T) {
	type file struct {
		cells  int
		keys   []int
		values []float64
		path   string
	}
	var files []file
	for _, cells := range []int{1 << 16, 1 << 14} {
		keys, values := testCoefficients(5000, cells, 1)
		write := writeDirectoryLayout
		if cells == 1<<14 {
			write = writeRankLayout
		}
		// Small blocks so the values span many.
		path := write(t, keys, values, WriteOptions{Cells: cells, BlockSize: 128})
		files = append(files, file{cells, keys, values, path})
	}
	for _, tc := range []struct {
		name string
		open func(path string) (*Store, error)
	}{
		{"mmap", Open},
		{"read", func(path string) (*Store, error) {
			raw, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			return Load(bytes.NewReader(raw))
		}},
		{"read file", func(path string) (*Store, error) {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return Load(f)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, file := range files {
				roundtrip(t, tc.name, tc.open, file.path, file.cells, file.keys, file.values)
			}
		})
	}
}

// roundtrip is TestRoundtrip over one file, opened by open.
func roundtrip(t *testing.T, name string, open func(string) (*Store, error), path string, cells int, keys []int, values []float64) {
	s, err := open(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer func() { _ = s.Close() }()
	if name == "mmap" && !s.fileMapped {
		t.Skip("mmap unavailable on this platform")
	}
	if name != "mmap" && s.fileMapped {
		t.Fatal("Load mapped the file")
	}
	if s.NonzeroCount() != len(keys) {
		t.Fatalf("%s: NonzeroCount = %d, want %d", s.Shape(), s.NonzeroCount(), len(keys))
	}
	if s.Size() != cells {
		t.Fatalf("%s: Size = %d, want %d", s.Shape(), s.Size(), cells)
	}
	var wantMass float64
	for _, v := range values {
		wantMass += math.Abs(v)
	}
	if math.Abs(s.Mass()-wantMass) > 1e-9*wantMass {
		t.Fatalf("%s: Mass = %v, want %v", s.Shape(), s.Mass(), wantMass)
	}
	// Every stored key, in random order, via Get.
	perm := rand.New(rand.NewSource(2)).Perm(len(keys))
	for _, i := range perm {
		if got := storage.Get(s, keys[i]); got != values[i] {
			t.Fatalf("%s: Get(%d) = %v, want %v", s.Shape(), keys[i], got, values[i])
		}
	}
	// Unknown keys are zero.
	stored := make(map[int]bool, len(keys))
	for _, k := range keys {
		stored[k] = true
	}
	for k := 0; k < cells && k < 1000; k++ {
		if !stored[k] {
			if got := storage.Get(s, k); got != 0 {
				t.Fatalf("%s: Get(%d) = %v, want 0 (unstored)", s.Shape(), k, got)
			}
		}
	}
	// Batch in key order, which is slot order.
	ordered := sortedKeys(keys)
	st0 := s.Stats()
	dst := make([]float64, len(ordered))
	storage.BatchGet(s, ordered, dst)
	byKey := make(map[int]float64, len(keys))
	for i, k := range keys {
		byKey[k] = values[i]
	}
	for j, k := range ordered {
		if dst[j] != byKey[k] {
			t.Fatalf("%s: GetBatch slot %d key %d = %v, want %v", s.Shape(), j, k, dst[j], byKey[k])
		}
	}
	st := s.Stats()
	if hits := st.ColdHits - st0.ColdHits; hits != int64(len(ordered)) {
		t.Fatalf("%s: key-order drain counted %d hits, want %d", s.Shape(), hits, len(ordered))
	}
	// Enumeration covers exactly the stored set.
	got := make(map[int]float64, len(keys))
	if err := s.Walk(func(k int, v float64) bool {
		got[k] = v
		return true
	}); err != nil {
		t.Fatalf("%s: Walk: %v", s.Shape(), err)
	}
	if len(got) != len(keys) {
		t.Fatalf("%s: Walk visited %d keys, want %d", s.Shape(), len(got), len(keys))
	}
	for k, v := range byKey {
		if got[k] != v {
			t.Fatalf("%s: Walk[%d] = %v, want %v", s.Shape(), k, got[k], v)
		}
	}
}

// TestLayoutOrderCanonical pins the one order of both shapes: slot i of the
// blocks holds the value of the i-th smallest stored key, whatever order the
// writer was handed the keys in and whatever their magnitudes, so the rank
// the index returns is the slot. Five keys over 4096 cells make a directory
// file of one bucket; with 70 keys above them over 128 cells, enough for
// the rank record to be the smaller index, a rank file of one record.
func TestLayoutOrderCanonical(t *testing.T) {
	keys := []int{50, 20, 40, 10, 30}
	values := []float64{0.5, -8, 8, 1, 3}
	rankKeys, rankValues := slices.Clone(keys), slices.Clone(values)
	for k := 51; k <= 120; k++ {
		rankKeys, rankValues = append(rankKeys, k), append(rankValues, 2)
	}
	for _, path := range []string{
		writeRankLayout(t, rankKeys, rankValues, WriteOptions{Cells: 128, BlockSize: 2}),
		writeDirectoryLayout(t, keys, values, WriteOptions{Cells: 1 << 12, BlockSize: 2}),
	} {
		s, err := Open(path)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		want := []float64{1, -8, 3, 8, 0.5} // keys 10, 20, 30, 40, 50
		for slot, v := range want {
			ext := s.BlockExtent(slot / 2)
			word := s.data[ext.Off+int64(slot%2)*8:]
			if got := math.Float64frombits(binary.LittleEndian.Uint64(word)); got != v {
				t.Fatalf("%s: slot %d holds %v, want %v", s.Shape(), slot, got, v)
			}
		}
		for rank, k := range []int{10, 20, 30, 40, 50} {
			if slot, ok := s.findKey(k); !ok || slot != rank {
				t.Fatalf("%s: key %d resolves to slot %d (ok %v), want its rank %d", s.Shape(), k, slot, ok, rank)
			}
		}
		for _, k := range []int{0, 11, 49, 127} {
			if _, ok := s.findKey(k); ok {
				t.Fatalf("%s: key %d, not stored, resolves to a slot", s.Shape(), k)
			}
		}
		_ = s.Close()
	}
}

// TestQuantizedLayoutRefused pins that a file whose flags mark float32 block
// values — a lossy mode the format no longer writes — is refused by Open and
// by Load, with the remedy to rebuild it from the source data, whatever
// its shape.
func TestQuantizedLayoutRefused(t *testing.T) {
	const cells = 1 << 10
	sparseKeys, sparseValues := testCoefficients(100, cells, 4)
	denseKeys, denseValues := denseCoefficients(cells, 0.9, 4)
	for shape, path := range map[string]string{
		"sparse": writeDirectoryLayout(t, sparseKeys, sparseValues, WriteOptions{Cells: cells}),
		"dense":  writeRankLayout(t, denseKeys, denseValues, WriteOptions{Cells: cells}),
	} {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[6] |= flagQuantized
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path)
		if err == nil {
			_ = s.Close()
			t.Fatalf("%s: a file with float32 block values opened", shape)
		}
		if !namesRebuild(err) {
			t.Fatalf("%s: Open failed with %v, want the rebuild remedy", shape, err)
		}
		if s, err := Load(bytes.NewReader(raw)); err == nil || !namesRebuild(err) {
			t.Fatalf("%s: Load = (%v, %v), want the rebuild remedy", shape, s, err)
		}
	}
}

// TestCorruptHeader pins that flipped header bytes are rejected at open.
func TestCorruptHeader(t *testing.T) {
	keys, values := testCoefficients(100, 1<<12, 3)
	path := writeDirectoryLayout(t, keys, values, WriteOptions{Cells: 1 << 12})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{0, 5, 9, 20, 40} {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0xff
		bad := filepath.Join(t.TempDir(), "bad.wvls")
		if err := os.WriteFile(bad, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := Open(bad); err == nil {
			_ = s.Close()
			t.Fatalf("Open accepted a header with byte %d flipped", off)
		}
	}
	// Truncation is rejected too.
	bad := filepath.Join(t.TempDir(), "trunc.wvls")
	if err := os.WriteFile(bad, raw[:len(raw)-8], 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := Open(bad); err == nil {
		_ = s.Close()
		t.Fatal("Open accepted a truncated file")
	}
}

// TestCorruptBlock pins the degradation contract: a flipped byte in one
// block fails exactly the keys in that block — per-key errors through
// the fallible surface, valid values everywhere else.
func TestCorruptBlock(t *testing.T) {
	const cells = 1 << 14
	keys, values := testCoefficients(2000, cells, 4)
	path := writeDirectoryLayout(t, keys, values, WriteOptions{
		Cells: cells, BlockSize: 100,
	})
	// Learn the geometry, then corrupt the middle block's payload.
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	victim := s.Blocks() / 2
	ref := s.BlockExtent(victim)
	blockKeys := map[int]bool{}
	sorted := sortedKeys(keys)
	for lo, hi := s.g.blockSlots(victim); lo < hi; lo++ {
		blockKeys[sorted[lo]] = true
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], ref.Off+int64(ref.Len)/2); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], ref.Off+int64(ref.Len)/2); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = Open(path)
	if err != nil {
		t.Fatalf("Open after block corruption should succeed (header intact): %v", err)
	}
	defer func() { _ = s.Close() }()
	dst := make([]float64, len(keys))
	err = s.BatchGetCtx(context.Background(), keys, dst)
	var be *storage.BatchError
	if !errors.As(err, &be) {
		t.Fatalf("BatchGetCtx = %v, want *BatchError", err)
	}
	failedKeys := map[int]bool{}
	for _, ke := range be.Failed {
		failedKeys[ke.Key] = true
	}
	if len(failedKeys) != len(blockKeys) {
		t.Fatalf("%d keys failed, want the %d keys of block %d", len(failedKeys), len(blockKeys), victim)
	}
	for i, k := range keys {
		if blockKeys[k] {
			if !failedKeys[k] {
				t.Fatalf("key %d lives in the corrupt block but did not fail", k)
			}
			continue
		}
		if failedKeys[k] {
			t.Fatalf("key %d failed but lives outside the corrupt block", k)
		}
		if dst[i] != values[i] {
			t.Fatalf("key %d = %v, want %v (positions outside the corrupt block must be valid)", k, dst[i], values[i])
		}
	}
	if s.Stats().BlockLoadFailures == 0 {
		t.Fatal("BlockLoadFailures not counted")
	}
}

// TestBatchGetCtxCancellation pins that a cancelled context aborts the
// batch whole (no *BatchError) both up front and mid-batch.
func TestBatchGetCtxCancellation(t *testing.T) {
	const cells = 1 << 14
	keys, values := testCoefficients(2000, cells, 5)
	path := writeDirectoryLayout(t, keys, values, WriteOptions{Cells: cells, BlockSize: 64})
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dst := make([]float64, len(keys))
	if err := s.BatchGetCtx(ctx, keys, dst); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled BatchGetCtx = %v, want context.Canceled", err)
	}
	// Mid-batch: a context that reports cancellation only after the first
	// stride check.
	mc := &midCancelCtx{Context: context.Background(), after: 1}
	if err := s.BatchGetCtx(mc, keys, dst); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-batch BatchGetCtx = %v, want context.Canceled", err)
	}
}

// midCancelCtx reports Canceled from its (after+1)-th Err call on.
type midCancelCtx struct {
	context.Context
	mu    sync.Mutex
	calls int
	after int
}

func (c *midCancelCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls++
	if c.calls > c.after {
		return context.Canceled
	}
	return nil
}

// TestConcurrentReads exercises the mapped reads and the block check from
// many goroutines under -race, over a directory file of sparse data and a
// rank file of dense data.
func TestConcurrentReads(t *testing.T) {
	const cells = 1 << 14
	keys, values := testCoefficients(2000, cells, 6)
	sparse := writeDirectoryLayout(t, keys, values, WriteOptions{
		Cells: cells, BlockSize: 64,
	})
	t.Run("sparse", func(t *testing.T) { concurrentReads(t, sparse, keys, values) })
	keys, values = denseCoefficients(cells, 0.8, 6)
	dense := writeRankLayout(t, keys, values, WriteOptions{Cells: cells, BlockSize: 64})
	t.Run("dense", func(t *testing.T) { concurrentReads(t, dense, keys, values) })
}

// concurrentReads drains random batches of the stored keys from eight
// goroutines at once from a freshly opened store whose blocks are all still
// unverified.
func concurrentReads(t *testing.T, path string, keys []int, values []float64) {
	byKey := make(map[int]float64, len(keys))
	for i, k := range keys {
		byKey[k] = values[i]
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			dst := make([]float64, 64)
			batch := make([]int, 64)
			for iter := 0; iter < 50; iter++ {
				for i := range batch {
					batch[i] = keys[rng.Intn(len(keys))]
				}
				if err := s.BatchGetCtx(context.Background(), batch, dst); err != nil {
					panic(err)
				}
				for i, k := range batch {
					if dst[i] != byKey[k] {
						panic("value mismatch under concurrency")
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteValidation pins writer input validation.
func TestWriteValidation(t *testing.T) {
	dir := t.TempDir()
	p := func(name string) string { return filepath.Join(dir, name) }
	if err := writeFile(p("a"), []int{1}, []float64{1, 2}, WriteOptions{Cells: 8}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := writeFile(p("b"), []int{9}, []float64{1}, WriteOptions{Cells: 8}); err == nil {
		t.Fatal("out-of-range key accepted")
	}
	if err := writeFile(p("c"), []int{1, 1}, []float64{1, 2}, WriteOptions{Cells: 8}); err == nil {
		t.Fatal("duplicate key accepted")
	}
	if err := writeFile(p("d"), nil, nil, WriteOptions{Cells: 0}); err == nil {
		t.Fatal("zero domain accepted")
	}
	// Zero values are dropped, not stored.
	if err := writeFile(p("e"), []int{1, 2}, []float64{0, 5}, WriteOptions{Cells: 8}); err != nil {
		t.Fatal(err)
	}
	s, err := Open(p("e"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	if s.NonzeroCount() != 1 {
		t.Fatalf("NonzeroCount = %d, want 1 (zero dropped)", s.NonzeroCount())
	}
}

// TestEmptyLayout pins the degenerate all-zero store.
func TestEmptyLayout(t *testing.T) {
	path := writeDirectoryLayout(t, nil, nil, WriteOptions{Cells: 16})
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	if s.NonzeroCount() != 0 || storage.Get(s, 3) != 0 {
		t.Fatal("empty layout must serve zeros")
	}
	if err := s.Walk(func(int, float64) bool {
		t.Fatal("empty layout enumerated a key")
		return false
	}); err != nil {
		t.Fatal(err)
	}
}

// TestMetaRoundtrip pins the embedded database identity.
func TestMetaRoundtrip(t *testing.T) {
	meta := &Meta{
		FilterName: "db4",
		TupleCount: 1234,
		Names:      []string{"age", "salary"},
		Sizes:      []int{64, 128},
		Windows:    [][2]float64{{0, 100}, {10, 1e6}},
	}
	keys, values := testCoefficients(50, 64*128, 7)
	path := writeDirectoryLayout(t, keys, values, WriteOptions{Cells: 64 * 128, Meta: meta})
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	got := s.Meta()
	if got == nil {
		t.Fatal("Meta lost")
	}
	if got.FilterName != meta.FilterName || got.TupleCount != meta.TupleCount {
		t.Fatalf("Meta = %+v, want %+v", got, meta)
	}
	if !sort.IntsAreSorted(got.Sizes) && len(got.Sizes) != 2 {
		t.Fatalf("Sizes = %v", got.Sizes)
	}
	for i := range meta.Names {
		if got.Names[i] != meta.Names[i] || got.Sizes[i] != meta.Sizes[i] || got.Windows[i] != meta.Windows[i] {
			t.Fatalf("Meta dim %d = %v/%v/%v, want %v/%v/%v", i,
				got.Names[i], got.Sizes[i], got.Windows[i],
				meta.Names[i], meta.Sizes[i], meta.Windows[i])
		}
	}
}

// TestSizeBudget pins what a file holds: a header, the index and the
// values, nothing else. Its sections are exactly those three, and its size
// is the header, the index, 8 bytes per stored value and one checksum per
// block plus indexCRC, to the byte — a section that came back, a dense
// array's zeros or a permutation beside the values say, would show here.
// The index per coefficient is pinned a little above what it measures at
// each density: rank records, 0.15625 bytes a cell, at 3/4, 1/3, 1/4 and
// 1/5 (0.21, 0.47, 0.63, 0.82); a directory of 1-byte lows at 1/8 (1.09),
// 2-byte lows at 1/128 (2.01) and 3-byte lows at 1/65536 (3.01).
func TestSizeBudget(t *testing.T) {
	for _, tc := range []struct {
		name      string
		n, cells  int
		shape     string
		perKeyMax float64
	}{
		{"3/4", 300_000, 400_000, "rank", 0.21},
		{"1/3", 100_000, 300_000, "rank", 0.47},
		{"1/4", 100_000, 400_000, "rank", 0.63},
		{"1/5", 200_000, 1 << 20, "rank", 0.82},
		{"1/8", 100_000, 800_000, "directory", 1.10},
		{"1/128", 100_000, 12_800_000, "directory", 2.01},
		{"1/65536", 100_000, 100_000 << 16, "directory", 3.02},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.n
			keys, values := testCoefficients(n, tc.cells, 8)
			write, index := writeDirectoryLayout, "key index"
			if tc.shape == "rank" {
				write, index = writeRankLayout, "rank words"
			}
			path := write(t, keys, values, WriteOptions{Cells: tc.cells})
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			s, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = s.Close() }()
			sections := s.Sections()
			var names []string
			for _, sec := range sections {
				names = append(names, sec.Name)
			}
			if !slices.Equal(names, []string{"header", index, "values"}) {
				t.Fatalf("sections %+v, want header, %s and values only", sections, index)
			}
			header, indexBytes := sections[0].Bytes, sections[1].Bytes
			if want := header + indexBytes + 8*int64(n) + 4*int64(s.Blocks()+1); info.Size() != want {
				t.Fatalf("file is %d bytes, want header %d + %s %d + 8·%d + 4·(%d+1) = %d",
					info.Size(), header, index, indexBytes, n, s.Blocks(), want)
			}
			if sections[2].Bytes != info.Size()-header-indexBytes {
				t.Fatalf("values section is %d bytes, want the rest of the file's %d", sections[2].Bytes, info.Size()-header-indexBytes)
			}
			if perKey := float64(indexBytes) / float64(n); perKey > tc.perKeyMax {
				t.Fatalf("%s is %.3f bytes per coefficient, budget %.2f (sections %+v)", index, perKey, tc.perKeyMax, sections)
			}
			st := s.Stats()
			if st.FileBytes != info.Size() || st.IndexBytes != info.Size()-header-8*int64(n) {
				t.Fatalf("Stats FileBytes %d IndexBytes %d, want %d and file − header − %d value bytes", st.FileBytes, st.IndexBytes, info.Size(), 8*n)
			}
		})
	}
}

// TestPackedWords pins the one fixed-width accessor at every width, down to
// the last entry of a section, whose 8-byte load ends in the section's pad.
func TestPackedWords(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for w := 1; w <= 8; w++ {
		for _, n := range []int{1, 2, 63, 64, 1000} {
			want := make([]uint64, n)
			var b []byte
			for i := range want {
				want[i] = rng.Uint64() >> (64 - 8*w)
				b = appendPacked(b, want[i], w)
			}
			want[n-1] = ^uint64(0) >> (64 - 8*w) // all ones next to the pad
			b = appendPacked(b[:(n-1)*w], want[n-1], w)
			b = append(b, make([]byte, 8-w)...)
			if int64(len(b)) != packedSize(n, w) {
				t.Fatalf("width %d: %d entries take %d bytes, packedSize says %d", w, n, len(b), packedSize(n, w))
			}
			p := newPacked(b, w)
			for i, v := range want {
				if got := p.at(i); got != v {
					t.Fatalf("width %d entry %d/%d = %#x, want %#x", w, i, n, got, v)
				}
			}
		}
	}
}

// TestWidthBoundaries writes five-key layouts whose domain makes each low
// width from 1 to 8 the smallest key index — cells = 1<<62 puts the whole
// key in the lows, a bucket shift of 64 — and one past each step up to 3,
// and reads every key back: the largest is the last key of the index and its
// value the last slot, and keys between them read as absent.
func TestWidthBoundaries(t *testing.T) {
	for _, tc := range []struct {
		cells int
		width int
	}{
		{1 << 8, 1}, {1<<8 + 1, 1}, {1 << 16, 2}, {1<<16 + 1, 2}, {1 << 24, 3}, {1<<24 + 1, 3},
		{1 << 32, 4}, {1 << 40, 5}, {1 << 48, 6}, {1 << 56, 7}, {1 << 62, 8},
	} {
		keys := []int{0, 1, tc.cells / 2, tc.cells - 2, tc.cells - 1}
		values := []float64{5, -4, 3, 2, -1}
		path := writeDirectoryLayout(t, keys, values, WriteOptions{Cells: tc.cells, BlockSize: 2})
		s, err := Open(path)
		if err != nil {
			t.Fatalf("cells %d: %v", tc.cells, err)
		}
		if s.g.lowWidth != tc.width {
			t.Fatalf("cells %d: low width %d, want %d", tc.cells, s.g.lowWidth, tc.width)
		}
		for i, k := range keys {
			if got, err := storage.GetCtx(context.Background(), s, k); err != nil || got != values[i] {
				t.Fatalf("cells %d: Get(%d) = %v, %v; want %v", tc.cells, k, got, err, values[i])
			}
		}
		for _, k := range []int{2, tc.cells/2 - 1, tc.cells/2 + 1, tc.cells - 3} {
			if got, err := storage.GetCtx(context.Background(), s, k); err != nil || got != 0 {
				t.Fatalf("cells %d: Get(%d) = %v, %v; want an absent key's 0", tc.cells, k, got, err)
			}
		}
		var walked []int
		if err := s.Walk(func(k int, _ float64) bool {
			walked = append(walked, k)
			return true
		}); err != nil || !slices.Equal(walked, keys) {
			t.Fatalf("cells %d: Walk handed over %v (%v), want %v", tc.cells, walked, err, keys)
		}
		_ = s.Close()
	}
}

// TestCorruptIndex is the corruption table: one damaged byte anywhere past
// the header — in the key directory, the keys' low bytes, a rank word, a
// rank count or sub-count, a block or the checksums — and every key of the domain,
// stored or not, asked for in |value|-descending order, ascending and
// descending, comes back as a per-key error or as its true value, from the
// mapped file and from its bytes loaded. Never a wrong value, a stored key
// served as absent included, never a panic. A flip in an index section
// fails every key: indexCRC covers the whole index. The directory file
// holds 1000 keys of 8192 cells, the rank file 3000.
func TestCorruptIndex(t *testing.T) {
	const cells = 1 << 13
	for _, file := range []struct {
		n        int
		sections func(g geometry) []corruptSection
	}{
		{1000, func(g geometry) []corruptSection {
			return []corruptSection{
				{name: "dir", off: g.dirOff, end: g.dirOff + int64((g.buckets+1)*g.dirWidth()), index: true},
				{name: "lows", off: g.lowsOff, end: g.lowsOff + int64(g.nonzero*g.lowWidth), index: true},
				{name: "cold block", off: g.blocksOff, end: g.crcsOff},
				{name: "checksums", off: g.crcsOff, end: g.fileSize},
			}
		}},
		{3000, func(g geometry) []corruptSection {
			words, counts := corruptSection{name: "rank words", index: true}, corruptSection{name: "rank counts", index: true}
			for r := 0; r < g.records; r++ {
				for b := int64(0); b < rankRecord; b++ {
					at := g.rankOff + int64(r)*rankRecord + b
					if b < 16 { // the count and the sub-counts
						counts.at = append(counts.at, at)
					} else {
						words.at = append(words.at, at)
					}
				}
			}
			return []corruptSection{words, counts,
				{name: "rank file block", off: g.blocksOff, end: g.crcsOff},
				{name: "rank file checksums", off: g.crcsOff, end: g.fileSize},
			}
		}},
	} {
		keys, values := testCoefficients(file.n, cells, 10)
		write := writeDirectoryLayout
		if file.n == 3000 {
			write = writeRankLayout
		}
		path := write(t, keys, values, WriteOptions{Cells: cells, BlockSize: 128})
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		g := s.g
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		want := make([]float64, cells)
		for i, k := range keys {
			want[k] = values[i]
		}
		orders := make([][]int, 3)
		orders[0] = slices.Clone(keys)
		slices.SortFunc(orders[0], func(a, b int) int { return cmp.Compare(math.Abs(want[b]), math.Abs(want[a])) })
		for k := 0; k < cells; k++ {
			orders[1] = append(orders[1], k)
			orders[2] = append(orders[2], cells-1-k)
		}
		asked := 2 * (len(orders[0]) + 2*cells) // per damaged file: both stores, every order
		check := func(t *testing.T, mut []byte) (failed int) {
			bad := filepath.Join(t.TempDir(), "bad.wvls")
			if err := os.WriteFile(bad, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			mapped, err := Open(bad)
			if err != nil {
				t.Fatalf("Open: %v (the header is intact)", err)
			}
			defer func() { _ = mapped.Close() }()
			loaded, err := Load(bytes.NewReader(mut))
			if err != nil {
				t.Fatalf("Load: %v (the header is intact)", err)
			}
			defer func() { _ = loaded.Close() }()
			for _, s := range []*Store{mapped, loaded} {
				for _, order := range orders {
					dst := make([]float64, len(order))
					for i := range dst {
						dst[i] = math.NaN()
					}
					err := s.BatchGetCtx(context.Background(), order, dst)
					bad := map[int]bool{}
					var be *storage.BatchError
					if errors.As(err, &be) {
						for _, ke := range be.Failed {
							bad[ke.Index] = true
						}
					} else if err != nil {
						t.Fatalf("BatchGetCtx = %v, want per-key errors", err)
					}
					failed += len(bad)
					for i, k := range order {
						if !bad[i] && dst[i] != want[k] {
							t.Fatalf("key %d served %v, want %v or an error", k, dst[i], want[k])
						}
					}
				}
			}
			return failed
		}

		rng := rand.New(rand.NewSource(11))
		for _, sec := range file.sections(g) {
			t.Run(sec.name, func(t *testing.T) {
				total := 0
				for trial := 0; trial < 8; trial++ {
					at := sec.pick(rng, trial)
					for _, flip := range []byte{0x01, 0x80, 0xff} {
						mut := append([]byte(nil), raw...)
						mut[at] ^= flip
						failed := check(t, mut)
						if sec.index && failed != asked {
							t.Fatalf("byte %d of %s flipped by %#x: %d of %d keys failed, want every one", at, sec.name, flip, failed, asked)
						}
						total += failed
					}
				}
				if total == 0 {
					t.Fatalf("no damage to %s ever failed a key: the table is not reaching the section", sec.name)
				}
			})
		}
	}
}

// corruptSection is where TestCorruptIndex flips bytes: [off,end), or one
// of the offsets at. index marks a section under indexCRC.
type corruptSection struct {
	name     string
	off, end int64
	index    bool
	at       []int64
}

// pick returns the byte of trial: the section's first byte on the first,
// a random one after.
func (c corruptSection) pick(rng *rand.Rand, trial int) int64 {
	if c.at != nil {
		if trial == 0 {
			return c.at[0]
		}
		return c.at[rng.Intn(len(c.at))]
	}
	if trial == 0 {
		return c.off // the section's first byte, e.g. dir[0]
	}
	return c.off + rng.Int63n(c.end-c.off)
}

// TestKeyIndexMustBeOrdered pins the index's own consistency checks, the
// ones indexCRC cannot stand in for. Each damaged file is rewritten with
// the checksum recomputed. In a directory file: a dir entry that falls
// after an empty bucket, which leaves the stored keys ascending but hands
// the next bucket a slot range that starts inside the one before; a dir
// that ends one short of nonzero; two keys of one bucket whose lows are
// swapped; and a last key whose low byte puts it past the domain's end,
// inside the last bucket's 256 cells. In a rank file: a count one above
// the bits before it; a sub-count one above the bits before its word; a
// stored key's bit cleared, which leaves the counts after it one too
// many; a bit set beside the stored ones, one too few; the last record's
// count raised with its last word's lowest bit cleared and that word's
// sub-count lowered, so the sub-counts are right, the counts hold the
// header's nonzero and the slots shift by one; and the last stored key's
// bit moved past the domain's end, inside the last word of the domain,
// which leaves every count right. Each fails every lookup of the
// domain, stored key or not, with a per-key error — never a zero, never
// another key's value — and fails Walk with an error, of the mapped file
// and of the file loaded from a file and from bytes.
func TestKeyIndexMustBeOrdered(t *testing.T) {
	const cells = 1<<13 - 100
	// A key index of 1-byte lows in 32 buckets of 256 cells, bucket 5 empty
	// and the last one 156 cells short; rank records whose last holds 412
	// cells, the last of them in its word 6, 28 cells.
	all, allValues := testCoefficients(1000, cells, 12)
	var keys []int
	var values []float64
	for i, k := range all {
		if k>>8 != 5 {
			keys, values = append(keys, k), append(values, allValues[i])
		}
	}
	path := writeDirectoryLayout(t, keys, values, WriteOptions{Cells: cells, BlockSize: 128})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	g := s.g
	dir := func(b int) uint64 { return s.dir.at(b) }
	if g.lowWidth != 1 || g.buckets != 32 || dir(5) != dir(6) || dir(6) == dir(7) || dir(31) == dir(32) {
		t.Fatalf("low width %d, %d buckets, dir[5:8] %d %d %d, dir[31:] %d %d: want 1-byte lows, 32 buckets, bucket 5 empty and 7 and 31 not",
			g.lowWidth, g.buckets, dir(5), dir(6), dir(7), dir(31), dir(32))
	}
	slot, dw := int(dir(7))+1, g.dirWidth() // slot: a key of bucket 7 after the first
	damage := func(raw []byte, g geometry, edit func(mut []byte)) []byte {
		mut := slices.Clone(raw)
		edit(mut)
		binary.LittleEndian.PutUint32(mut[g.fileSize-4:], crc32.ChecksumIEEE(mut[g.rankOff:g.blocksOff]))
		return mut
	}
	setDir := func(b int, v uint64) func([]byte) {
		return func(mut []byte) { copy(mut[g.dirOff+int64(b*dw):], appendPacked(nil, v, dw)) }
	}
	damaged := map[string][]byte{
		"a falling dir entry": damage(raw, g, setDir(6, dir(6)-1)),
		"the directory short": damage(raw, g, setDir(g.buckets, uint64(g.nonzero-1))),
		"lows out of order": damage(raw, g, func(mut []byte) {
			lows := mut[g.lowsOff:]
			lows[slot-1], lows[slot] = lows[slot], lows[slot-1]
		}),
		"a key past the domain": damage(raw, g, func(mut []byte) { mut[g.lowsOff+int64(g.nonzero-1)] = 0xff }),
	}
	_ = s.Close()

	rankKeys, rankValues := testCoefficients(3000, cells, 13)
	rankPath := writeRankLayout(t, rankKeys, rankValues, WriteOptions{Cells: cells, BlockSize: 128})
	if raw, err = os.ReadFile(rankPath); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(rankPath); err != nil {
		t.Fatal(err)
	}
	rg, last := s.g, slices.Max(rankKeys)
	_ = s.Close()
	lastWord, lastRecord := (cells-1)>>6, rg.records-1
	if last>>6 != lastWord || lastWord>>3 != lastRecord || lastWord&7 != 6 {
		t.Fatalf("the last stored key %d of %d cells: want it in word 6 of the last of %d records", last, cells, rg.records)
	}
	// word is the offset of word w, counted over the whole section, count
	// and subs those of record r's count and sub-counts.
	word := func(w int) int64 { return rg.rankOff + int64(w>>3)*rankRecord + 16 + 8*int64(w&7) }
	count := func(r int) int64 { return rg.rankOff + int64(r)*rankRecord }
	subs := func(r int) int64 { return count(r) + 8 }
	add := func(at int64, v uint64) func([]byte) {
		return func(mut []byte) {
			binary.LittleEndian.PutUint64(mut[at:], binary.LittleEndian.Uint64(mut[at:])+v)
		}
	}
	xor := func(at int64, v uint64) func([]byte) {
		return func(mut []byte) {
			binary.LittleEndian.PutUint64(mut[at:], binary.LittleEndian.Uint64(mut[at:])^v)
		}
	}
	k0 := rankKeys[0] // a stored key
	free := 0         // a cell not stored
	for slices.Contains(rankKeys, free) {
		free++
	}
	lastBits := binary.LittleEndian.Uint64(raw[word(lastWord):])
	damaged["a count one high"] = damage(raw, rg, add(count(rg.records/2), 1))
	damaged["a sub-count one high"] = damage(raw, rg, add(subs(rg.records/2), 1))
	damaged["a stored key's bit cleared"] = damage(raw, rg, xor(word(k0>>6), 1<<(k0&63)))
	damaged["a bit set beside the stored ones"] = damage(raw, rg, xor(word(free>>6), 1<<(free&63)))
	damaged["the last count shifted"] = damage(raw, rg, func(mut []byte) {
		add(count(lastRecord), 1)(mut)
		xor(word(lastWord), lastBits&-lastBits)(mut)
		add(subs(lastRecord), -(1<<54)&(1<<64-1))(mut) // −1 in sub-count 6, the keys in words 0…6
	})
	damaged["a bit past the domain"] = damage(raw, rg, xor(word(lastWord), 1<<(last&63)|1<<(cells%64)))

	domain := make([]int, cells)
	for k := range domain {
		domain[k] = k
	}
	for name, mut := range damaged {
		bad := filepath.Join(t.TempDir(), "bad.wvls")
		if err := os.WriteFile(bad, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(bad)
		if err != nil {
			t.Fatalf("%s: Open: %v (the header is intact)", name, err)
		}
		for pass := 0; pass < 2; pass++ { // a failed check is not remembered
			dst := make([]float64, cells)
			var be *storage.BatchError
			if err := s.BatchGetCtx(context.Background(), domain, dst); !errors.As(err, &be) || len(be.Failed) != cells {
				failed := 0
				if be != nil {
					failed = len(be.Failed)
				}
				t.Fatalf("%s, pass %d: %d of %d keys failed (err %v), want every one", name, pass, failed, cells, err)
			}
		}
		if err := s.Walk(func(int, float64) bool { return true }); err == nil {
			t.Fatalf("%s: Walk met no damage", name)
		}
		_ = s.Close()
		f, err := os.Open(bad)
		if err != nil {
			t.Fatal(err)
		}
		for via, r := range map[string]io.Reader{"file": f, "bytes": bytes.NewReader(mut)} {
			if _, err := loadAll(r); err == nil {
				t.Fatalf("%s: Load and Walk via %s accepted the file", name, via)
			}
		}
		_ = f.Close()
	}
}

// namesRebuild reports whether err names the remedy that runs: a rebuild
// from the source data, not a command that opens the file it refuses.
func namesRebuild(err error) bool {
	return strings.Contains(err.Error(), "rebuild it from the source data with wvload or wvq -create") &&
		!strings.Contains(err.Error(), "wvlayout")
}

// TestVersion1Refused pins the migration path: a version 1 prelude is not
// read, and the refusal names the rebuild from the source data; a sparse
// file short of its indexCRC is refused too.
func TestVersion1Refused(t *testing.T) {
	v1 := make([]byte, 256)
	copy(v1, Magic)
	v1[4] = 1
	keys, values := testCoefficients(300, 1<<12, 5)
	sparse, err := os.ReadFile(writeDirectoryLayout(t, keys, values, WriteOptions{Cells: 1 << 12}))
	if err != nil {
		t.Fatal(err)
	}
	for name, file := range map[string][]byte{"version 1": v1, "no indexCRC": sparse[:len(sparse)-4]} {
		path := filepath.Join(t.TempDir(), "old.wvls")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path)
		if err == nil {
			_ = s.Close()
			t.Fatalf("Open accepted a %s file", name)
		}
		if name == "version 1" && !namesRebuild(err) {
			t.Fatalf("%s: Open = %v, want the rebuild remedy", name, err)
		}
	}
}

// withReservedWord returns a copy of file with the header word of width
// bytes at off (from the file's start) set to v and the header checksum
// recomputed, so nothing else about the file is wrong.
func withReservedWord(file []byte, off, width int, v uint64) []byte {
	c := slices.Clone(file)
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], v)
	copy(c[off:off+width], w[:width])
	hdrLen := binary.LittleEndian.Uint32(c[8:12])
	binary.LittleEndian.PutUint32(c[12:16], crc32.ChecksumIEEE(c[preludeSize:preludeSize+hdrLen]))
	return c
}

// hotWordOff is where the header's first reserved word, once a sparse
// file's hot region, sits: after the prelude and the cells and nonzero
// counts.
const hotWordOff = preludeSize + 16

// keyStreamWordOff is where the header's third reserved word, once a sparse
// file's key stream length, sits in file: the blob's last word.
func keyStreamWordOff(file []byte) int {
	return preludeSize + int(binary.LittleEndian.Uint32(file[8:12])) - 8
}

// familyCountOff is where the header's second reserved word, once a sparse
// file's family count, sits in file: just before the third.
func familyCountOff(file []byte) int { return keyStreamWordOff(file) - 2 }

// TestReservedWordsRefused: the sparse files of two older writers — one with
// its values in |value|-descending slots (testdata/sparse_by_value.wvls; it
// records one family), one with its keys in a delta stream behind samples
// (testdata/sparse_key_stream.wvls; it records the stream's length) — and a
// file of today whose hot word, family count or key stream word is set with
// the header checksum fixed, are each refused by Open and by Load with
// ErrReservedWords and the rebuild remedy — never read as another geometry.
func TestReservedWordsRefused(t *testing.T) {
	byValue, err := os.ReadFile("testdata/sparse_by_value.wvls")
	if err != nil {
		t.Fatal(err)
	}
	keyStream, err := os.ReadFile("testdata/sparse_key_stream.wvls")
	if err != nil {
		t.Fatal(err)
	}
	keys, values := testCoefficients(300, 1<<12, 6)
	today, err := os.ReadFile(writeDirectoryLayout(t, keys, values, WriteOptions{Cells: 1 << 12}))
	if err != nil {
		t.Fatal(err)
	}
	for name, file := range map[string][]byte{
		"by value":        byValue,
		"key stream":      keyStream,
		"hot word":        withReservedWord(today, hotWordOff, 8, 3),
		"family count":    withReservedWord(today, familyCountOff(today), 2, 1),
		"key stream word": withReservedWord(today, keyStreamWordOff(today), 8, 300),
	} {
		path := filepath.Join(t.TempDir(), "old.wvls")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(path)
		if err == nil {
			_ = s.Close()
			t.Fatalf("%s: Open accepted the file", name)
		}
		if !errors.Is(err, ErrReservedWords) || !namesRebuild(err) {
			t.Fatalf("%s: Open = %v, want ErrReservedWords and the rebuild remedy", name, err)
		}
		if s, err := Load(bytes.NewReader(file)); !errors.Is(err, ErrReservedWords) || !namesRebuild(err) {
			t.Fatalf("%s: Load = (%v, %v), want ErrReservedWords and the rebuild remedy", name, s, err)
		}
	}
}
