package layout

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
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

// writeTestLayout writes a layout that must come out sparse: the tests that
// use it reach the key index, the hot region or the schedule order.
func writeTestLayout(t *testing.T, keys []int, values []float64, opts WriteOptions) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.wvls")
	if _, err := Write(path, keys, values, opts); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if fileDense(t, path) {
		t.Fatalf("%d coefficients over %d cells were written dense; this test needs the sparse shape", len(keys), opts.Cells)
	}
	return path
}

// fileDense reads the shape flag from a layout file's prelude.
func fileDense(t *testing.T, path string) bool {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return binary.LittleEndian.Uint16(raw[6:8])&flagDense != 0
}

// TestRoundtrip pins that every stored key reads back bit-identically
// through both the mmap and the pread tiers, hot and cold, and that unknown
// keys read as zero.
func TestRoundtrip(t *testing.T) {
	const cells = 1 << 16
	keys, values := testCoefficients(5000, cells, 1)
	path := writeTestLayout(t, keys, values, WriteOptions{
		Cells:    cells,
		HotCount: 512,
		// Small blocks so the cold tail spans many blocks.
		BlockSize: 128,
	})
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"mmap", Options{}},
		{"pread", Options{DisableMmap: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Open(path, tc.opts)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer func() { _ = s.Close() }()
			if tc.name == "mmap" && !s.Mmapped() {
				t.Skip("mmap unavailable on this platform")
			}
			if tc.name != "mmap" && s.Mmapped() {
				t.Fatal("DisableMmap ignored")
			}
			if s.NonzeroCount() != len(keys) {
				t.Fatalf("NonzeroCount = %d, want %d", s.NonzeroCount(), len(keys))
			}
			if s.Size() != cells {
				t.Fatalf("Size = %d, want %d", s.Size(), cells)
			}
			var wantMass float64
			for _, v := range values {
				wantMass += math.Abs(v)
			}
			if math.Abs(s.Mass()-wantMass) > 1e-9*wantMass {
				t.Fatalf("Mass = %v, want %v", s.Mass(), wantMass)
			}
			// Every stored key, in random order, via Get.
			perm := rand.New(rand.NewSource(2)).Perm(len(keys))
			for _, i := range perm {
				if got := storage.Get(s, keys[i]); got != values[i] {
					t.Fatalf("Get(%d) = %v, want %v", keys[i], got, values[i])
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
						t.Fatalf("Get(%d) = %v, want 0 (unstored)", k, got)
					}
				}
			}
			// Batch in layout (schedule) order: the batch path serves whole
			// slot runs, so lookups happen only at run boundaries (tier and
			// block crossings) and all but the first resolve via the
			// sequential hint.
			ordered := make([]int, s.NonzeroCount())
			for j := range ordered {
				ordered[j] = s.KeyOfSlot(j)
			}
			st0 := s.Stats()
			dst := make([]float64, len(ordered))
			storage.BatchGet(s, ordered, dst)
			byKey := make(map[int]float64, len(keys))
			for i, k := range keys {
				byKey[k] = values[i]
			}
			for j, k := range ordered {
				if dst[j] != byKey[k] {
					t.Fatalf("GetBatch slot %d key %d = %v, want %v", j, k, dst[j], byKey[k])
				}
			}
			st := s.Stats()
			if st.HintHits <= st0.HintHits {
				t.Fatalf("sequential drain gained no hint hits (%d → %d)", st0.HintHits, st.HintHits)
			}
			if tier := st.HotHits + st.ColdHits - st0.HotHits - st0.ColdHits; tier != int64(len(ordered)) {
				t.Fatalf("sequential drain counted %d tier hits, want %d", tier, len(ordered))
			}
			// Enumeration covers exactly the stored set.
			got := make(map[int]float64, len(keys))
			s.ForEachNonzero(func(k int, v float64) bool {
				got[k] = v
				return true
			})
			if len(got) != len(keys) {
				t.Fatalf("ForEachNonzero visited %d keys, want %d", len(got), len(keys))
			}
			for k, v := range byKey {
				if got[k] != v {
					t.Fatalf("ForEachNonzero[%d] = %v, want %v", k, got[k], v)
				}
			}
		})
	}
}

// TestLayoutOrderCanonical pins that with no family supplied, slots are
// ordered |value| descending with ascending-key ties.
func TestLayoutOrderCanonical(t *testing.T) {
	keys := []int{10, 20, 30, 40, 50}
	values := []float64{1, -8, 3, 8, 0.5}
	path := writeTestLayout(t, keys, values, WriteOptions{Cells: 64, HotCount: 2, BlockSize: 2})
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer func() { _ = s.Close() }()
	want := []int{20, 40, 30, 10, 50} // |−8| ties |8| → key 20 first
	for j, k := range want {
		if got := s.KeyOfSlot(j); got != k {
			t.Fatalf("KeyOfSlot(%d) = %d, want %d", j, got, k)
		}
	}
	fams := s.Families()
	if len(fams) != 1 || fams[0].Label != "canonical" || fams[0].HotCoverage != 1 {
		t.Fatalf("Families = %+v, want the canonical family at full coverage", fams)
	}
}

// TestLayoutFamilyOrder pins that the first supplied family dictates the
// physical prefix and that per-family hot coverage is measured.
func TestLayoutFamilyOrder(t *testing.T) {
	keys := []int{1, 2, 3, 4, 5, 6}
	values := []float64{10, 20, 30, 40, 50, 60}
	fam := FamilyOrder{
		Label:       "sse",
		Fingerprint: "sse",
		// Deliberately anti-canonical: smallest first; mentions only 4 keys.
		Keys: []int{1, 2, 3, 4},
	}
	other := FamilyOrder{Label: "canon-like", Fingerprint: "x", Keys: []int{6, 5, 1, 2}}
	path := writeTestLayout(t, keys, values, WriteOptions{
		Cells: 64, HotCount: 4, BlockSize: 2,
		Families: []FamilyOrder{fam, other},
	})
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer func() { _ = s.Close() }()
	// Family order first (1,2,3,4), then leftovers canonical (6,5).
	want := []int{1, 2, 3, 4, 6, 5}
	for j, k := range want {
		if got := s.KeyOfSlot(j); got != k {
			t.Fatalf("KeyOfSlot(%d) = %d, want %d", j, got, k)
		}
	}
	fams := s.Families()
	if len(fams) != 2 {
		t.Fatalf("Families = %+v, want 2", fams)
	}
	if fams[0].Fingerprint != "sse" || fams[0].HotCoverage != 1 {
		t.Fatalf("lead family = %+v, want full hot coverage", fams[0])
	}
	// other's top-4 is {6,5,1,2}; hot slots hold {1,2,3,4} → coverage 2/4.
	if fams[1].HotCoverage != 0.5 {
		t.Fatalf("bucketed family coverage = %v, want 0.5", fams[1].HotCoverage)
	}
}

// TestQuantizedLayout pins the lossy mode: the flag round-trips and values
// in the cold tail come back as float32-rounded.
func TestQuantizedLayout(t *testing.T) {
	keys := []int{1, 2, 3, 4}
	values := []float64{100, 10, 1.000000000001, 0.1}
	path := writeTestLayout(t, keys, values, WriteOptions{
		Cells: 64, HotCount: 1, BlockSize: 2, Quantize: true,
	})
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer func() { _ = s.Close() }()
	if !s.Quantized() {
		t.Fatal("Quantized flag lost")
	}
	if got := storage.Get(s, 1); got != 100 { // hot slot: raw float64
		t.Fatalf("hot Get(1) = %v, want 100", got)
	}
	if got := storage.Get(s, 3); got != float64(float32(1.000000000001)) {
		t.Fatalf("cold Get(3) = %v, want float32 rounding", got)
	}
}

// TestCorruptHeader pins that flipped header bytes are rejected at open.
func TestCorruptHeader(t *testing.T) {
	keys, values := testCoefficients(100, 1<<12, 3)
	path := writeTestLayout(t, keys, values, WriteOptions{Cells: 1 << 12})
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
		if s, err := Open(bad, Options{}); err == nil {
			_ = s.Close()
			t.Fatalf("Open accepted a header with byte %d flipped", off)
		}
	}
	// Truncation is rejected too.
	bad := filepath.Join(t.TempDir(), "trunc.wvls")
	if err := os.WriteFile(bad, raw[:len(raw)-8], 0o644); err != nil {
		t.Fatal(err)
	}
	if s, err := Open(bad, Options{}); err == nil {
		_ = s.Close()
		t.Fatal("Open accepted a truncated file")
	}
}

// TestCorruptBlock pins the degradation contract: a flipped byte in one
// cold block fails exactly the keys in that block — per-key errors through
// the fallible surface, valid values everywhere else.
func TestCorruptBlock(t *testing.T) {
	const cells = 1 << 14
	keys, values := testCoefficients(2000, cells, 4)
	path := writeTestLayout(t, keys, values, WriteOptions{
		Cells: cells, HotCount: 200, BlockSize: 100,
	})
	// Learn the geometry, then corrupt the middle block's payload.
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	victim := s.Blocks() / 2
	ref := s.BlockExtent(victim)
	blockKeys := map[int]bool{}
	for lo, hi := s.g.blockSlots(victim); lo < hi; lo++ {
		blockKeys[s.KeyOfSlot(lo)] = true
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

	s, err = Open(path, Options{})
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
	keys, values := testCoefficients(3000, cells, 5)
	path := writeTestLayout(t, keys, values, WriteOptions{Cells: cells, HotCount: 100, BlockSize: 64})
	s, err := Open(path, Options{})
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

// TestConcurrentReads exercises the mmap and cache tiers from many
// goroutines under -race.
func TestConcurrentReads(t *testing.T) {
	const cells = 1 << 14
	keys, values := testCoefficients(4000, cells, 6)
	sparse := writeTestLayout(t, keys, values, WriteOptions{
		Cells: cells, HotCount: 256, BlockSize: 64,
	})
	t.Run("sparse", func(t *testing.T) { concurrentReads(t, sparse, keys, values) })
	keys, values = denseCoefficients(cells, 0.8, 6)
	dense := writeDenseLayout(t, keys, values, WriteOptions{Cells: cells, BlockSize: 64})
	t.Run("dense", func(t *testing.T) { concurrentReads(t, dense, keys, values) })
}

// concurrentReads drains random batches of the stored keys from eight
// goroutines at once, through the mapping and then through pread, from a
// freshly opened store whose blocks are all still unverified.
func concurrentReads(t *testing.T, path string, keys []int, values []float64) {
	byKey := make(map[int]float64, len(keys))
	for i, k := range keys {
		byKey[k] = values[i]
	}
	for _, opts := range []Options{{}, {DisableMmap: true}} {
		s, err := Open(path, opts)
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
}

// TestWriteValidation pins writer input validation.
func TestWriteValidation(t *testing.T) {
	dir := t.TempDir()
	p := func(name string) string { return filepath.Join(dir, name) }
	if _, err := Write(p("a"), []int{1}, []float64{1, 2}, WriteOptions{Cells: 8}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Write(p("b"), []int{9}, []float64{1}, WriteOptions{Cells: 8}); err == nil {
		t.Fatal("out-of-range key accepted")
	}
	if _, err := Write(p("c"), []int{1, 1}, []float64{1, 2}, WriteOptions{Cells: 8}); err == nil {
		t.Fatal("duplicate key accepted")
	}
	if _, err := Write(p("d"), nil, nil, WriteOptions{Cells: 0}); err == nil {
		t.Fatal("zero domain accepted")
	}
	// Zero values are dropped, not stored.
	if _, err := Write(p("e"), []int{1, 2}, []float64{0, 5}, WriteOptions{Cells: 8}); err != nil {
		t.Fatal(err)
	}
	s, err := Open(p("e"), Options{})
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
	path := writeTestLayout(t, nil, nil, WriteOptions{Cells: 16})
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	if s.NonzeroCount() != 0 || storage.Get(s, 3) != 0 {
		t.Fatal("empty layout must serve zeros")
	}
	s.ForEachNonzero(func(int, float64) bool {
		t.Fatal("empty layout enumerated a key")
		return false
	})
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
	path := writeTestLayout(t, keys, values, WriteOptions{Cells: 64 * 128, Meta: meta})
	s, err := Open(path, Options{})
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

// TestSizeBudget pins the format's point: index and values together stay
// under 17 bytes per coefficient at default geometry, so the three
// full-width arrays of version 1 (31 bytes) cannot silently come back.
func TestSizeBudget(t *testing.T) {
	const n, cells = 200_000, 1 << 20
	keys, values := testCoefficients(n, cells, 8)
	path := writeTestLayout(t, keys, values, WriteOptions{Cells: cells})
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	sections := s.Sections()
	var sum int64
	for _, sec := range sections {
		sum += sec.Bytes
	}
	st := s.Stats()
	if sum != info.Size() || st.FileBytes != info.Size() {
		t.Fatalf("sections sum to %d, Stats.FileBytes = %d, file is %d bytes", sum, st.FileBytes, info.Size())
	}
	if header := sections[0].Bytes; info.Size() > 17*n+header {
		t.Fatalf("file is %d bytes = %.2f per coefficient, budget 17 (sections %+v)",
			info.Size(), float64(info.Size()-header)/n, sections)
	}
	if valueBytes := int64(n) * 8; st.IndexBytes != info.Size()-sections[0].Bytes-valueBytes {
		t.Fatalf("IndexBytes = %d, want file − header − %d value bytes", st.IndexBytes, valueBytes)
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

// TestWidthBoundaries writes layouts whose domain sits on either side of
// each byte-width step and reads the largest key back on both tiers — it is
// the last key of the index and, with the smallest value, the last entry of
// keyOfSlot.
func TestWidthBoundaries(t *testing.T) {
	for _, tc := range []struct {
		cells int
		width int
	}{
		{1 << 8, 1}, {1<<8 + 1, 2}, {1 << 24, 3}, {1<<24 + 1, 4}, {1<<32 + 1, 5},
	} {
		if got := wordWidth(uint64(tc.cells - 1)); got != tc.width {
			t.Fatalf("cells %d: key width %d, want %d", tc.cells, got, tc.width)
		}
		keys := []int{0, 1, tc.cells / 2, tc.cells - 2, tc.cells - 1}
		values := []float64{5, -4, 3, 2, -1}
		path := writeTestLayout(t, keys, values, WriteOptions{Cells: tc.cells, HotCount: 2, BlockSize: 2})
		for _, opts := range []Options{{}, {DisableMmap: true}} {
			s, err := Open(path, opts)
			if err != nil {
				t.Fatalf("cells %d: %v", tc.cells, err)
			}
			if got := s.KeyOfSlot(len(keys) - 1); got != tc.cells-1 {
				t.Fatalf("cells %d: last slot holds key %d, want %d", tc.cells, got, tc.cells-1)
			}
			for i, k := range keys {
				if got, err := storage.GetCtx(context.Background(), s, k); err != nil || got != values[i] {
					t.Fatalf("cells %d mmap %v: Get(%d) = %v, %v; want %v", tc.cells, s.Mmapped(), k, got, err, values[i])
				}
			}
			for _, k := range []int{2, tc.cells/2 + 1, tc.cells - 3} {
				if got, err := storage.GetCtx(context.Background(), s, k); err != nil || got != 0 {
					t.Fatalf("cells %d: Get(%d) = %v, %v; want an absent key's 0", tc.cells, k, got, err)
				}
			}
			_ = s.Close()
		}
	}
}

// TestCorruptIndex is the corruption table: one damaged byte anywhere past
// the header — in the key samples, their stream offsets, the delta stream,
// slotOf, keyOfSlot or a cold block — and every key of the domain, stored or
// not, asked for in schedule order, ascending and descending, on both
// tiers, comes back as a per-key error or as its true value. Never a wrong
// value, never a panic.
func TestCorruptIndex(t *testing.T) {
	const cells = 1 << 13
	keys, values := testCoefficients(3000, cells, 10)
	path := writeTestLayout(t, keys, values, WriteOptions{Cells: cells, HotCount: 300, BlockSize: 128})
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := s.g
	want := make([]float64, cells)
	for i, k := range keys {
		want[k] = values[i]
	}
	orders := make([][]int, 3)
	for j := 0; j < g.nonzero; j++ {
		orders[0] = append(orders[0], s.KeyOfSlot(j))
	}
	for k := 0; k < cells; k++ {
		orders[1] = append(orders[1], k)
		orders[2] = append(orders[2], cells-1-k)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	check := func(t *testing.T, mut []byte) (failed int) {
		bad := filepath.Join(t.TempDir(), "bad.wvls")
		if err := os.WriteFile(bad, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{{}, {DisableMmap: true}} {
			s, err := Open(bad, opts)
			if err != nil {
				t.Fatalf("Open: %v (the header is intact)", err)
			}
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
						t.Fatalf("mmap %v: key %d served %v, want %v or an error", s.Mmapped(), k, dst[i], want[k])
					}
				}
			}
			_ = s.Close()
		}
		return failed
	}

	rng := rand.New(rand.NewSource(11))
	for _, sec := range []struct {
		name     string
		off, end int64
	}{
		{"samples", g.samplesOff, g.samplesOff + int64(g.groups*g.keyWidth)},
		{"offsets", g.offsetsOff, g.offsetsOff + int64(g.groups*g.offWidth)},
		{"stream", g.streamOff, g.slotOfOff},
		{"slotOf", g.slotOfOff, g.slotOfOff + int64(g.nonzero*g.slotWidth)},
		{"keyOfSlot", g.keyOfSlotOff, g.keyOfSlotOff + int64(g.nonzero*g.keyWidth)},
		{"cold block", g.blocksOff, g.crcsOff},
	} {
		t.Run(sec.name, func(t *testing.T) {
			total := 0
			for trial := 0; trial < 8; trial++ {
				at := sec.off + rng.Int63n(sec.end-sec.off)
				if trial == 0 {
					at = sec.off // the section's first byte, e.g. samples[0]
				}
				for _, flip := range []byte{0x01, 0x80, 0xff} {
					mut := append([]byte(nil), raw...)
					mut[at] ^= flip
					total += check(t, mut)
				}
			}
			if total == 0 {
				t.Fatalf("no damage to %s ever failed a key: the table is not reaching the section", sec.name)
			}
		})
	}

	// The satellite bug: a slotOf entry beyond nonzero used to index the
	// block directory out of range. All-ones is beyond any slot count.
	t.Run("slot out of range", func(t *testing.T) {
		mut := append([]byte(nil), raw...)
		for i := 0; i < g.slotWidth; i++ {
			mut[g.slotOfOff+int64(7*g.slotWidth+i)] = 0xff
		}
		if check(t, mut) == 0 {
			t.Fatal("an out-of-range slot failed no key")
		}
	})
}

// TestVersion1Refused pins the migration path: a version 1 prelude is not
// read, it is sent back to wvlayout.
func TestVersion1Refused(t *testing.T) {
	v1 := make([]byte, 256)
	copy(v1, magic)
	v1[4] = 1
	path := filepath.Join(t.TempDir(), "v1.wvls")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, Options{})
	if err == nil {
		_ = s.Close()
		t.Fatal("Open accepted a version 1 file")
	}
	if !strings.Contains(err.Error(), "rebuild with wvlayout") {
		t.Fatalf("Open = %v, want the rebuild-with-wvlayout message", err)
	}
}
