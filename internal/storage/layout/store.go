package layout

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"os"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/storage"
)

// Store serves a .wvls layout file through a three-tier read path:
//
//  1. the mmap hot region of a sparse file — the most important hotCount
//     coefficients, raw float64 words read zero-copy from the mapping;
//  2. verified blocks — a block's CRC is checked the first time any of its
//     slots is served, one bit per block remembers that it passed, and
//     every later read of it is a window of the mapping;
//  3. positioned reads — when mmap is unavailable (disabled or unsupported)
//     hot runs and blocks are pread: a block whole for its one check, and
//     after that only the words a run asks for. The index sections are read
//     into memory at open so key lookup makes no syscalls.
//
// In a dense file the slot is the key. In a sparse one key→slot resolution
// is a search of the compressed key index, short-circuited by a sequential
// hint: a progressive drain requests keys in exactly the layout's slot
// order, so after the first key of a batch the remaining lookups are O(1)
// pointer bumps and the whole drain walks the file front to back —
// sequential I/O, which is the point of the sparse shape.
//
// Store implements storage.Store, Updatable (Add refuses: layouts are
// read-only) and Enumerable. All methods are safe for concurrent use.
type Store struct {
	f        *os.File
	data     []byte // whole-file mapping; nil on the pread fallback path
	g        geometry
	meta     *Meta
	families []Family

	// The index sections and the block checksums: windows of the mapping,
	// or of the copies the pread tier reads at open.
	samples   packed
	offsets   packed
	stream    []byte
	slotOf    packed
	keyOfSlot packed
	crcs      []byte

	// verified holds one bit per block, set once the block's CRC has
	// passed.
	verified []atomic.Uint64

	retrievals atomic.Int64
	// hint is the slot expected next by a sequential (schedule-order)
	// reader of a sparse file; see lookupSlot.
	hint atomic.Int64

	hotHits        atomic.Int64
	coldHits       atomic.Int64
	hintHits       atomic.Int64
	blockLoads     atomic.Int64
	blockLoadFails atomic.Int64
	preads         atomic.Int64
}

// Options configures Open.
type Options struct {
	// DisableMmap forces the positioned-read fallback path (used by tests;
	// the open also falls back automatically when mmap fails).
	DisableMmap bool
}

// Open opens a layout file. The header is CRC-verified and its geometry
// validated against the actual file before any data is trusted; a file that
// fails either check is rejected here rather than misread later. Nothing
// past the header is read or checked at open under mmap.
func Open(path string, opts Options) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s, err := open(f, opts)
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	return s, nil
}

func open(f *os.File, opts Options) (*Store, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	var prelude [preludeSize]byte
	if _, err := f.ReadAt(prelude[:], 0); err != nil {
		return nil, fmt.Errorf("layout: reading prelude: %w", err)
	}
	if string(prelude[0:4]) != magic {
		return nil, fmt.Errorf("layout: bad magic %q (not a .wvls file)", prelude[0:4])
	}
	switch v := binary.LittleEndian.Uint16(prelude[4:6]); v {
	case version:
	case 1:
		return nil, fmt.Errorf("layout: version 1 .wvls file; the format is derived data — rebuild with wvlayout")
	default:
		return nil, fmt.Errorf("layout: unsupported version %d", v)
	}
	flags := binary.LittleEndian.Uint16(prelude[6:8])
	hdrLen := binary.LittleEndian.Uint32(prelude[8:12])
	hdrCRC := binary.LittleEndian.Uint32(prelude[12:16])
	if int64(hdrLen) > st.Size()-preludeSize || hdrLen > 1<<24 {
		return nil, fmt.Errorf("layout: header length %d implausible", hdrLen)
	}
	blob := make([]byte, hdrLen)
	if _, err := f.ReadAt(blob, preludeSize); err != nil {
		return nil, fmt.Errorf("layout: reading header: %w", err)
	}
	if got := crc32.ChecksumIEEE(blob); got != hdrCRC {
		return nil, fmt.Errorf("layout: header checksum mismatch (file %08x, computed %08x)", hdrCRC, got)
	}
	g, meta, families, err := decodeHeaderBlob(blob, flags, st.Size())
	if err != nil {
		return nil, err
	}
	s := &Store{f: f, g: *g, meta: meta, families: families,
		verified: make([]atomic.Uint64, (g.numBlocks+63)/64)}

	// index is everything before the hot values; crcs trail the blocks.
	var index []byte
	if !opts.DisableMmap {
		if data, err := mmapFile(f, st.Size()); err == nil {
			s.data = data
			index, s.crcs = data[g.samplesOff:g.hotOff], data[g.crcsOff:]
		}
	}
	if s.data == nil {
		// Fallback: resident index (mmap would have served it zero-copy).
		index, s.crcs = make([]byte, g.hotOff-g.samplesOff), make([]byte, g.fileSize-g.crcsOff)
		if _, err := f.ReadAt(index, g.samplesOff); err != nil {
			return nil, fmt.Errorf("layout: loading index: %w", err)
		}
		if _, err := f.ReadAt(s.crcs, g.crcsOff); err != nil {
			return nil, fmt.Errorf("layout: loading block checksums: %w", err)
		}
	}
	window := func(from, to int64) []byte { return index[from-g.samplesOff : to-g.samplesOff] }
	s.samples = newPacked(window(g.samplesOff, g.offsetsOff), g.keyWidth)
	s.offsets = newPacked(window(g.offsetsOff, g.streamOff), g.offWidth)
	s.stream = window(g.streamOff, g.slotOfOff)
	s.slotOf = newPacked(window(g.slotOfOff, g.keyOfSlotOff), g.slotWidth)
	s.keyOfSlot = newPacked(window(g.keyOfSlotOff, g.hotOff), g.keyWidth)
	return s, nil
}

// section returns length bytes at off: a subslice of the mapping, or on the
// fallback path a pread into scratch when it is long enough and into a
// fresh buffer otherwise.
func (s *Store) section(off, length int64, scratch []byte) ([]byte, error) {
	if length == 0 {
		return nil, nil
	}
	if s.data != nil {
		if off < 0 || off+length > int64(len(s.data)) {
			return nil, fmt.Errorf("layout: section [%d,%d) outside file", off, off+length)
		}
		return s.data[off : off+length], nil
	}
	buf := scratch
	if int64(len(buf)) < length {
		buf = make([]byte, length)
	}
	buf = buf[:length]
	s.preads.Add(1)
	if _, err := s.f.ReadAt(buf, off); err != nil {
		return nil, err
	}
	return buf, nil
}

// KeyOfSlot returns the key stored at slot j: the layout's retrieval order
// in a sparse file, whose drain in this order is sequential I/O, and j
// itself in a dense one.
func (s *Store) KeyOfSlot(j int) int {
	if s.g.dense() {
		return j
	}
	return int(s.keyOfSlot.at(j))
}

// errKeyIndex reports a key group whose deltas do not lead from its sample
// to the next one: the "absent" it would answer cannot be trusted.
func errKeyIndex(group int) error {
	return fmt.Errorf("layout: key index group %d is inconsistent", group)
}

// findKey resolves key to its rank among the stored keys: a binary search
// of the samples, then a walk of at most one group's deltas. A hit stops at
// the key and is verified by the caller through keyOfSlot; a miss walks the
// whole group and answers "absent" only if the deltas arrive exactly at the
// next sample (cells after the last group) — a damaged index fails the key
// instead of reading a stored coefficient as zero.
func (s *Store) findKey(key int) (rank int, ok bool, err error) {
	k := uint64(key)
	lo, hi := 0, s.g.groups // first group whose sample exceeds key, in [lo,hi]
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); s.samples.at(mid) > k {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	group := lo - 1
	if group < 0 {
		// Below the smallest key, if the first sample is one: its own slot
		// round trip says so.
		if s.g.groups > 0 {
			if slot := s.slotOf.at(0); slot >= uint64(s.g.nonzero) || s.keyOfSlot.at(int(slot)) != s.samples.at(0) {
				return 0, false, errKeyIndex(0)
			}
		}
		return 0, false, nil
	}
	first := group * groupSize
	acc := s.samples.at(group)
	if acc == k {
		return first, true, nil
	}
	pos, end, limit := s.offsets.at(group), uint64(len(s.stream)), uint64(s.g.cells)
	if group+1 < s.g.groups {
		end, limit = s.offsets.at(group+1), s.samples.at(group+1)
	}
	if pos > end || end > uint64(len(s.stream)) {
		return 0, false, errKeyIndex(group)
	}
	deltas, count := s.stream[pos:end], min(groupSize, s.g.nonzero-first)
	for j := 1; j <= count; j++ {
		d, m := binary.Uvarint(deltas)
		if m <= 0 || d == 0 || d > limit-acc {
			return 0, false, errKeyIndex(group)
		}
		deltas = deltas[m:]
		if acc += d; acc == k {
			return first + j, true, nil
		}
	}
	if acc != limit || len(deltas) != 0 {
		return 0, false, errKeyIndex(group)
	}
	return 0, false, nil
}

// lookupSlot resolves an in-range key → slot; ok is false for a key that is
// not stored. In a dense file every cell is stored at its own slot. In a
// sparse one the sequential hint is checked first: schedule-order readers
// advance one slot per retrieval, so the expected next slot usually holds
// the requested key and the index search is skipped entirely. A slot the
// search produces is served only if keyOfSlot maps it back to the key.
func (s *Store) lookupSlot(key int) (slot int, ok bool, err error) {
	if s.g.dense() {
		return key, true, nil
	}
	n := s.g.nonzero
	if h := int(s.hint.Load()); h >= 0 && h < n && s.KeyOfSlot(h) == key {
		s.hintHits.Add(1)
		return h, true, nil
	}
	rank, ok, err := s.findKey(key)
	if err != nil || !ok {
		return 0, false, err
	}
	if slot = int(s.slotOf.at(rank)); slot >= n || s.KeyOfSlot(slot) != key {
		return 0, false, fmt.Errorf("layout: slot %d does not hold key %d (index disagrees with itself)", slot, key)
	}
	return slot, true, nil
}

// blockRun returns the value words of the n slots from slot on, which lie
// in block b, behind a passed CRC check of the whole block. A block is
// checked once, on either tier: the first check that passes sets its bit,
// and from then on its slots are read directly — a window of the mapping,
// or a pread of just the run's words into scratch. Two first readers may
// both check it; a block that fails is never marked, so every later read
// checks it again.
func (s *Store) blockRun(b, slot, n int, scratch []byte) ([]byte, error) {
	lo, _ := s.g.blockSlots(b)
	from, length := int64(slot-lo)*int64(s.g.valWidth), int64(n)*int64(s.g.valWidth)
	word, bit := &s.verified[b/64], uint64(1)<<(b%64)
	if word.Load()&bit != 0 {
		vals, err := s.section(s.BlockExtent(b).Off+from, length, scratch)
		if err != nil {
			return nil, fmt.Errorf("layout: reading block %d: %w", b, err)
		}
		return vals, nil
	}
	vals, err := s.loadBlock(b)
	if err != nil {
		s.blockLoadFails.Add(1)
		return nil, err
	}
	s.blockLoads.Add(1)
	// go 1.22 has no atomic Or: set the bit by compare-and-swap.
	for old := word.Load(); old&bit == 0 && !word.CompareAndSwap(old, old|bit); old = word.Load() {
	}
	return vals[from : from+length], nil
}

// loadBlock reads and CRC-verifies block b.
func (s *Store) loadBlock(b int) ([]byte, error) {
	ext := s.BlockExtent(b)
	vals, err := s.section(ext.Off, int64(ext.Len), nil)
	if err != nil {
		return nil, fmt.Errorf("layout: reading block %d: %w", b, err)
	}
	want := binary.LittleEndian.Uint32(s.crcs[b*4:])
	if got := crc32.ChecksumIEEE(vals); got != want {
		return nil, fmt.Errorf("layout: block %d checksum mismatch (file %08x, computed %08x)", b, want, got)
	}
	return vals, nil
}

// readSlots decodes the values of slots [slot, slot+len(out)), which must
// lie inside one tier unit: the hot region, or a single block. The hot
// region is one window of the mapping or one pread, whatever the run length.
func (s *Store) readSlots(slot int, out []float64) error {
	if slot < s.g.hotCount {
		raw, err := s.section(s.g.hotOff+int64(slot)*8, int64(len(out))*8, nil)
		if err != nil {
			return err
		}
		for q := range out {
			out[q] = math.Float64frombits(binary.LittleEndian.Uint64(raw[q*8:]))
		}
		return nil
	}
	// A short run of a verified block is pread into the stack, not a fresh
	// buffer: a dense file's drain is mostly runs of one key.
	var scratch [128]byte
	vals, err := s.blockRun((slot-s.g.hotCount)/s.g.blockSize, slot, len(out), scratch[:])
	if err != nil {
		return err
	}
	if s.Quantized() {
		for q := range out {
			out[q] = float64(math.Float32frombits(binary.LittleEndian.Uint32(vals[q*4:])))
		}
	} else {
		for q := range out {
			out[q] = math.Float64frombits(binary.LittleEndian.Uint64(vals[q*8:]))
		}
	}
	return nil
}

// unitEnd returns the slot one past the tier unit holding slot: the end of
// the hot region, or of slot's block.
func (s *Store) unitEnd(slot int) int {
	if slot < s.g.hotCount {
		return s.g.hotCount
	}
	_, hi := s.g.blockSlots((slot - s.g.hotCount) / s.g.blockSize)
	return hi
}

// serveRun serves the longest prefix of keys[i:] that continues slot by
// slot from the resolved start within one tier unit — the common shape of a
// sparse file's progressive drain, whose batches are exactly the layout's
// physical order, and of any ascending run of a dense file. lookupSlot has
// already resolved and verified slot for keys[i]; the run extends while each
// next key is the next slot's key, so the per-key cost inside a run is one
// compare and one store instead of a hint check, a tier dispatch and a
// block check. It returns the run's length n ≥ 1; on error all n positions
// failed together (one unreadable run, one corrupt block).
func (s *Store) serveRun(keys []int, dst []float64, i, slot int) (int, error) {
	limit := min(s.unitEnd(slot)-slot, len(keys)-i)
	n := 1
	for n < limit && keys[i+n] == s.KeyOfSlot(slot+n) {
		n++
	}
	if !s.g.dense() {
		s.hint.Store(int64(slot + n))
	}
	return n, s.readSlots(slot, dst[i:i+n])
}

// batchCancelStride is how many keys BatchGetCtx serves between context
// checks: frequent enough to abort a huge batch promptly, rare enough to
// stay off the per-key fast path.
const batchCancelStride = 1024

// BatchGetCtx implements storage.Store. Runs of keys in layout order — a
// sparse file's progressive drain — are served blockwise through serveRun;
// a dense mapped file serves each key of a verified block with one load;
// anything else falls back to one lookup per key. A key inside
// the domain that is not stored is zero (like the hash store). Failures are
// per-key — an unreadable or corrupt block fails exactly the positions that
// resolve into it, reported via *storage.BatchError, and every other
// position holds a valid value. Cancellation is observed between strides and
// returned whole.
func (s *Store) BatchGetCtx(ctx context.Context, keys []int, dst []float64) error {
	if len(keys) != len(dst) {
		panic("layout: BatchGetCtx keys/dst length mismatch")
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	s.retrievals.Add(int64(len(keys)))
	// EXPLAIN ANALYZE tier attribution: snapshot the tier counters around
	// this call and record the deltas. Exact for a run draining alone,
	// approximate (shared deltas) when concurrent runs interleave — the
	// counters are store-global. Nil profile skips the snapshots entirely.
	if prof := obs.ProfileFrom(ctx); prof != nil {
		hot0, cold0 := s.hotHits.Load(), s.coldHits.Load()
		loads0, preads0 := s.blockLoads.Load(), s.preads.Load()
		defer func() {
			prof.AddLayout(s.hotHits.Load()-hot0, s.coldHits.Load()-cold0,
				s.blockLoads.Load()-loads0, s.preads.Load()-preads0)
		}()
	}
	// A dense mapped file with float64 values serves a key of a verified
	// block inline, with a bit test and one load: with no calls and no
	// locked instruction in the loop, the cache misses of a drain's random
	// keys overlap instead of queueing. That is why the tier hits are
	// tallied here and added to the shared counters once a call. Anything else — a block not yet checked, a key
	// out of range, the sparse shape — takes the general path below.
	var hot, cold int64
	defer func() {
		s.hotHits.Add(hot)
		s.coldHits.Add(cold)
	}()
	var failed []storage.KeyError
	i, checked := 0, 0
	var cells []byte
	if s.g.dense() && s.data != nil && s.g.valWidth == 8 {
		cells = s.data[s.g.blocksOff:s.g.crcsOff]
	}
	verified, blockSize := s.verified, s.g.blockSize
	for i < len(keys) {
		if i-checked >= batchCancelStride {
			if err := ctx.Err(); err != nil {
				return err
			}
			checked = i
		}
		k := keys[i]
		if uint(k) < uint(len(cells)/8) {
			if b := k / blockSize; verified[b>>6].Load()&(1<<(b&63)) != 0 {
				dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(cells[8*k:]))
				cold++
				i++
				continue
			}
		}
		if k < 0 || k >= s.g.cells {
			failed = append(failed, storage.KeyError{Index: i, Key: k,
				Err: fmt.Errorf("key out of range [0,%d)", s.g.cells)})
			i++
			continue
		}
		slot, ok, err := s.lookupSlot(k)
		if err != nil {
			failed = append(failed, storage.KeyError{Index: i, Key: k, Err: err})
			i++
			continue
		}
		if !ok {
			dst[i] = 0
			i++
			continue
		}
		n, err := s.serveRun(keys, dst, i, slot)
		if err != nil {
			for end := i + n; i < end; i++ {
				failed = append(failed, storage.KeyError{Index: i, Key: keys[i], Err: err})
			}
			continue
		}
		if slot < s.g.hotCount {
			hot += int64(n)
		} else {
			cold += int64(n)
		}
		i += n
	}
	if len(failed) > 0 {
		return &storage.BatchError{Failed: failed}
	}
	return nil
}

// Add implements storage.Updatable by refusing: a layout is a read-only
// artifact of its write-time schedule — rebuild it to change coefficients.
func (s *Store) Add(key int, delta float64) {
	panic("layout: store is read-only; rebuild the layout to change coefficients")
}

// Retrievals implements storage.Store.
func (s *Store) Retrievals() int64 { return s.retrievals.Load() }

// ResetStats implements storage.Store.
func (s *Store) ResetStats() { s.retrievals.Store(0) }

// NonzeroCount implements storage.Store.
func (s *Store) NonzeroCount() int { return s.g.nonzero }

// Size returns the domain size (total cells, zero or not).
func (s *Store) Size() int { return s.g.cells }

// Mass returns Σ|Δ̂[ξ]| as recorded at write time, so Theorem-1 bounds do
// not need an enumeration pass over the cold tail.
func (s *Store) Mass() float64 { return s.g.mass }

// Meta returns the embedded database identity, or nil for a layout written
// without one.
func (s *Store) Meta() *Meta { return s.meta }

// Families returns the penalty families recorded at write time.
func (s *Store) Families() []Family { return append([]Family(nil), s.families...) }

// Dense reports whether the file has the dense shape: every cell's value in
// key order, no index and no hot region.
func (s *Store) Dense() bool { return s.g.dense() }

// Quantized reports whether block values were stored as float32 (lossy).
func (s *Store) Quantized() bool { return s.g.flags&flagQuantized != 0 }

// Mmapped reports whether the mmap tier is active (false = pread fallback).
func (s *Store) Mmapped() bool { return s.data != nil }

// HotCount returns the number of slots in the raw hot region.
func (s *Store) HotCount() int { return s.g.hotCount }

// BlockSize returns the block granularity in slots.
func (s *Store) BlockSize() int { return s.g.blockSize }

// Blocks returns the number of blocks.
func (s *Store) Blocks() int { return s.g.numBlocks }

// Extent is a block's physical location in the file, exposed for
// diagnostics and corruption-injection tests.
type Extent struct {
	Off int64
	Len int
}

// BlockExtent returns the file extent of block b: nothing but its value
// words, at an offset that is arithmetic on the header.
func (s *Store) BlockExtent(b int) Extent {
	lo, hi := s.g.blockSlots(b)
	return Extent{
		Off: s.g.blocksOff + int64(lo-s.g.hotCount)*int64(s.g.valWidth),
		Len: (hi - lo) * s.g.valWidth,
	}
}

// Section is one named byte range of the file, for size reports.
type Section struct {
	Name  string
	Bytes int64
}

// Sections lists the file's sections in file order; their sizes sum to the
// file size. A dense file has two: the header and the values with their
// checksums.
func (s *Store) Sections() []Section {
	g := &s.g
	if g.dense() {
		return []Section{{"header", g.blocksOff}, {"values", g.fileSize - g.blocksOff}}
	}
	return []Section{
		{"header", g.samplesOff},
		{"key index", g.slotOfOff - g.samplesOff},
		{"slotOf", g.keyOfSlotOff - g.slotOfOff},
		{"keyOfSlot", g.hotOff - g.keyOfSlotOff},
		{"hot", g.blocksOff - g.hotOff},
		{"cold", g.fileSize - g.blocksOff},
	}
}

// ConcurrentSafe implements the storage.IsConcurrent capability check: the
// mapping is immutable, positioned reads are kernel-concurrent, and the
// verified bitmap and the counters are atomic.
func (s *Store) ConcurrentSafe() bool { return true }

// StackName names the layout in storage.Describe.
func (s *Store) StackName() string { return "layout" }

// ForEachNonzero implements storage.Enumerable in slot order — schedule
// order in a sparse file, key order in a dense one, zeros skipped — the
// order that costs one sequential pass: the hot region streams from the
// mapping and each block is verified once. Enumeration order is unspecified
// by the interface; callers that need key order sort.
func (s *Store) ForEachNonzero(fn func(key int, value float64) bool) {
	buf := make([]float64, s.g.blockSize)
	for lo := 0; lo < s.g.slots; {
		vals := buf[:min(s.unitEnd(lo)-lo, len(buf))]
		if err := s.readSlots(lo, vals); err != nil {
			panic(fmt.Sprintf("layout: enumerating slots [%d,%d): %v", lo, lo+len(vals), err))
		}
		for q, v := range vals {
			if v != 0 && !fn(s.KeyOfSlot(lo+q), v) {
				return
			}
		}
		lo += len(vals)
	}
}

// Stats is a point-in-time snapshot of the store's tier counters.
type Stats struct {
	// Dense marks the dense shape: every cell's value in key order, no
	// index and no hot region.
	Dense bool `json:"dense"`
	// Slots is the number of stored values — the nonzero coefficients of a
	// sparse file, every cell of a dense one; HotSlots of them live in the
	// raw mmap-served region, the rest in Blocks blocks of BlockSize.
	Slots    int `json:"slots"`
	HotSlots int `json:"hot_slots"`
	Blocks   int `json:"blocks"`
	// BlockSize is the block granularity in slots.
	BlockSize int `json:"block_size"`
	// Mmapped is false when the store runs on the pread fallback tier.
	Mmapped bool `json:"mmapped"`
	// Quantized marks lossy float32 block values.
	Quantized bool `json:"quantized,omitempty"`
	// HotHits counts retrievals served by the hot region, ColdHits by
	// blocks.
	HotHits  int64 `json:"hot_hits"`
	ColdHits int64 `json:"cold_hits"`
	// HintHits counts key lookups resolved by the sequential-slot hint
	// (no binary search): high on schedule-order drains of a sparse file.
	HintHits int64 `json:"hint_hits"`
	// BlockLoads counts block checks that passed: each block's first read
	// (more only when two readers race to it). BlockLoadFailures counts
	// block reads or checks that failed.
	BlockLoads        int64 `json:"block_loads"`
	BlockLoadFailures int64 `json:"block_load_failures,omitempty"`
	// VerifiedBlocks counts the blocks marked verified, which are read
	// without another check.
	VerifiedBlocks int `json:"verified_blocks"`
	// Preads counts positioned-read syscalls issued by the fallback tier.
	Preads int64 `json:"preads,omitempty"`
	// FileBytes is the size of the .wvls file; IndexBytes of them are
	// neither header nor value words (key index, slotOf, keyOfSlot, block
	// checksums).
	FileBytes  int64 `json:"file_bytes"`
	IndexBytes int64 `json:"index_bytes"`
	// Families lists the penalty families the layout was bucketed against.
	Families []Family `json:"families,omitempty"`
}

// Stats snapshots the tier counters.
func (s *Store) Stats() Stats {
	verified := 0
	for i := range s.verified {
		verified += bits.OnesCount64(s.verified[i].Load())
	}
	return Stats{
		Dense:             s.g.dense(),
		Slots:             s.g.slots,
		HotSlots:          s.g.hotCount,
		Blocks:            s.g.numBlocks,
		BlockSize:         s.g.blockSize,
		Mmapped:           s.data != nil,
		Quantized:         s.Quantized(),
		HotHits:           s.hotHits.Load(),
		ColdHits:          s.coldHits.Load(),
		HintHits:          s.hintHits.Load(),
		BlockLoads:        s.blockLoads.Load(),
		BlockLoadFailures: s.blockLoadFails.Load(),
		VerifiedBlocks:    verified,
		Preads:            s.preads.Load(),
		FileBytes:         s.g.fileSize,
		IndexBytes:        s.g.hotOff - s.g.samplesOff + s.g.fileSize - s.g.crcsOff,
		Families:          s.Families(),
	}
}

// Close releases the mapping and the underlying file. Not safe to call
// while retrievals are in flight.
func (s *Store) Close() error { return s.close() }

func (s *Store) close() error {
	var err error
	if s.data != nil {
		err = munmapFile(s.data)
		s.data = nil
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

var (
	_ storage.Updatable  = (*Store)(nil)
	_ storage.Enumerable = (*Store)(nil)
)
