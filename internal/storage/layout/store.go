package layout

import (
	"container/list"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/storage"
)

// Store serves a .wvls layout file through a three-tier read path:
//
//  1. the mmap hot region — the most important hotCount coefficients, raw
//     float64 words read zero-copy from the mapping;
//  2. an LRU of checksummed cold blocks — a cold retrieval verifies its
//     whole block's CRC once and neighbors in schedule order hit the cached
//     verdict; the block itself is a window of the mapping;
//  3. positioned reads — when mmap is unavailable (disabled or unsupported)
//     hot runs and cold blocks are pread, and the index sections are read
//     into memory at open so key lookup makes no syscalls.
//
// Key→slot resolution is a search of the compressed key index,
// short-circuited by a sequential hint: a progressive drain requests keys
// in exactly the layout's slot order, so after the first key of a batch the
// remaining lookups are O(1) pointer bumps and the whole drain walks the
// file front to back — sequential I/O, which is the point of the format.
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

	cache blockCache

	retrievals atomic.Int64
	// hint is the slot expected next by a sequential (schedule-order)
	// reader; see lookupSlot.
	hint atomic.Int64

	hotHits        atomic.Int64
	coldHits       atomic.Int64
	hintHits       atomic.Int64
	blockLoads     atomic.Int64
	blockLoadFails atomic.Int64
	preads         atomic.Int64
}

// DefaultCacheBlocks is the default capacity of the cold-block LRU.
const DefaultCacheBlocks = 64

// Options configures Open.
type Options struct {
	// DisableMmap forces the positioned-read fallback path (used by tests;
	// the open also falls back automatically when mmap fails).
	DisableMmap bool
	// CacheBlocks bounds the cold-block LRU; 0 selects DefaultCacheBlocks,
	// negative disables caching.
	CacheBlocks int
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
	s := &Store{f: f, g: *g, meta: meta, families: families}
	cacheBlocks := opts.CacheBlocks
	if cacheBlocks == 0 {
		cacheBlocks = DefaultCacheBlocks
	}
	if cacheBlocks > 0 {
		s.cache.capacity = cacheBlocks
		s.cache.lru = list.New()
		s.cache.index = make(map[int]*list.Element)
	}

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

// section returns length bytes at off: a subslice of the mapping, or a
// fresh pread buffer on the fallback path.
func (s *Store) section(off, length int64) ([]byte, error) {
	if length == 0 {
		return nil, nil
	}
	if s.data != nil {
		if off < 0 || off+length > int64(len(s.data)) {
			return nil, fmt.Errorf("layout: section [%d,%d) outside file", off, off+length)
		}
		return s.data[off : off+length], nil
	}
	buf := make([]byte, length)
	s.preads.Add(1)
	if _, err := s.f.ReadAt(buf, off); err != nil {
		return nil, err
	}
	return buf, nil
}

// KeyOfSlot returns the key stored at schedule slot j — the layout's
// retrieval order. Draining keys in this order is sequential I/O.
func (s *Store) KeyOfSlot(j int) int { return int(s.keyOfSlot.at(j)) }

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

// lookupSlot resolves key → slot; ok is false for a key that is not stored.
// The sequential hint is checked first: schedule-order readers advance one
// slot per retrieval, so the expected next slot usually holds the requested
// key and the index search is skipped entirely. A slot the search produces
// is served only if keyOfSlot maps it back to the key.
func (s *Store) lookupSlot(key int) (slot int, ok bool, err error) {
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

// blockCache is the checksummed cold-block LRU (tier 2).
type blockCache struct {
	mu       sync.Mutex
	capacity int
	lru      *list.List
	index    map[int]*list.Element
}

// blockEntry is one verified block: its value words in slot order, a
// zero-copy view of the mmap when one is live.
type blockEntry struct {
	id   int
	vals []byte
}

// block returns block b's value words, from cache or by a CRC-verified
// load. Loads run under the cache lock: concurrent cold misses serialize,
// which keeps every block checksummed at most once at a time (the drain
// pattern loads each block exactly once anyway).
func (s *Store) block(b int) ([]byte, error) {
	c := &s.cache
	if c.capacity > 0 {
		c.mu.Lock()
		if el, ok := c.index[b]; ok {
			c.lru.MoveToFront(el)
			vals := el.Value.(*blockEntry).vals
			c.mu.Unlock()
			return vals, nil
		}
		defer c.mu.Unlock()
	}
	vals, err := s.loadBlock(b)
	if err != nil {
		s.blockLoadFails.Add(1)
		return nil, err
	}
	s.blockLoads.Add(1)
	if c.capacity > 0 {
		for c.lru.Len() >= c.capacity {
			oldest := c.lru.Back()
			delete(c.index, oldest.Value.(*blockEntry).id)
			c.lru.Remove(oldest)
		}
		c.index[b] = c.lru.PushFront(&blockEntry{id: b, vals: vals})
	}
	return vals, nil
}

// loadBlock reads and CRC-verifies block b.
func (s *Store) loadBlock(b int) ([]byte, error) {
	ext := s.BlockExtent(b)
	vals, err := s.section(ext.Off, int64(ext.Len))
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
// lie inside one tier unit: the hot region, or a single cold block. The hot
// region is one window of the mapping or one pread, whatever the run length.
func (s *Store) readSlots(slot int, out []float64) error {
	if slot < s.g.hotCount {
		raw, err := s.section(s.g.hotOff+int64(slot)*8, int64(len(out))*8)
		if err != nil {
			return err
		}
		for q := range out {
			out[q] = math.Float64frombits(binary.LittleEndian.Uint64(raw[q*8:]))
		}
		return nil
	}
	b := (slot - s.g.hotCount) / s.g.blockSize
	vals, err := s.block(b)
	if err != nil {
		return err
	}
	lo, _ := s.g.blockSlots(b)
	if vals = vals[(slot-lo)*s.g.valWidth:]; s.Quantized() {
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
// the hot region, or of slot's cold block.
func (s *Store) unitEnd(slot int) int {
	if slot < s.g.hotCount {
		return s.g.hotCount
	}
	_, hi := s.g.blockSlots((slot - s.g.hotCount) / s.g.blockSize)
	return hi
}

// serveRun serves the longest prefix of keys[i:] that continues slot by
// slot from the resolved start within one tier unit — the common shape of a
// progressive drain, whose batches are exactly the layout's physical order.
// lookupSlot has already resolved and verified slot for keys[i]; the run
// extends while each next key is the next slot's key in the sequential
// keyOfSlot section, so the per-key cost inside a run is one compare and
// one store instead of a hint check, a tier dispatch and a block-cache
// lock. It returns the run's length n ≥ 1; on error all n positions failed
// together (one unreadable run, one corrupt block).
func (s *Store) serveRun(keys []int, dst []float64, i, slot int) (int, error) {
	limit := min(s.unitEnd(slot)-slot, len(keys)-i)
	n := 1
	for n < limit && keys[i+n] == int(s.keyOfSlot.at(slot+n)) {
		n++
	}
	s.hint.Store(int64(slot + n))
	if err := s.readSlots(slot, dst[i:i+n]); err != nil {
		return n, err
	}
	if slot < s.g.hotCount {
		s.hotHits.Add(int64(n))
	} else {
		s.coldHits.Add(int64(n))
	}
	return n, nil
}

// batchCancelStride is how many keys BatchGetCtx serves between context
// checks: frequent enough to abort a huge batch promptly, rare enough to
// stay off the per-key fast path.
const batchCancelStride = 1024

// BatchGetCtx implements storage.Store. Runs of keys in layout order — the
// progressive drain's access pattern — are served blockwise through
// serveRun; anything else falls back to one lookup per key. A key inside
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
	var failed []storage.KeyError
	i, checked := 0, 0
	for i < len(keys) {
		if i-checked >= batchCancelStride {
			if err := ctx.Err(); err != nil {
				return err
			}
			checked = i
		}
		k := keys[i]
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

// Quantized reports whether cold values were stored as float32 (lossy).
func (s *Store) Quantized() bool { return s.g.flags&flagQuantized != 0 }

// Mmapped reports whether the mmap tier is active (false = pread fallback).
func (s *Store) Mmapped() bool { return s.data != nil }

// HotCount returns the number of slots in the raw hot region.
func (s *Store) HotCount() int { return s.g.hotCount }

// BlockSize returns the cold-block granularity in slots.
func (s *Store) BlockSize() int { return s.g.blockSize }

// Blocks returns the number of cold blocks.
func (s *Store) Blocks() int { return s.g.numBlocks }

// Extent is a block's physical location in the file, exposed for
// diagnostics and corruption-injection tests.
type Extent struct {
	Off int64
	Len int
}

// BlockExtent returns the file extent of cold block b: nothing but its
// value words, at an offset that is arithmetic on the header.
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
// file size.
func (s *Store) Sections() []Section {
	g := &s.g
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
// cache and counters synchronize themselves.
func (s *Store) ConcurrentSafe() bool { return true }

// StackName names the layout in storage.Describe.
func (s *Store) StackName() string { return "layout" }

// ForEachNonzero implements storage.Enumerable in slot (schedule) order —
// the order that costs one sequential pass: the hot region streams from the
// mapping and each cold block is verified exactly once. Enumeration order is
// unspecified by the interface; callers that need key order sort.
func (s *Store) ForEachNonzero(fn func(key int, value float64) bool) {
	buf := make([]float64, s.g.blockSize)
	for lo := 0; lo < s.g.nonzero; {
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
	// Slots is the total coefficient count; HotSlots of them live in the
	// raw mmap-served region, the rest in Blocks cold blocks of BlockSize.
	Slots    int `json:"slots"`
	HotSlots int `json:"hot_slots"`
	Blocks   int `json:"blocks"`
	// BlockSize is the cold-block granularity in slots.
	BlockSize int `json:"block_size"`
	// Mmapped is false when the store runs on the pread fallback tier.
	Mmapped bool `json:"mmapped"`
	// Quantized marks lossy float32 cold values.
	Quantized bool `json:"quantized,omitempty"`
	// HotHits counts retrievals served by the hot region, ColdHits by
	// cold blocks (cached or freshly loaded).
	HotHits  int64 `json:"hot_hits"`
	ColdHits int64 `json:"cold_hits"`
	// HintHits counts key lookups resolved by the sequential-slot hint
	// (no binary search): high on schedule-order drains.
	HintHits int64 `json:"hint_hits"`
	// BlockLoads counts physical block reads and checksums (cold-cache
	// misses); BlockLoadFailures counts reads the checksum rejected.
	BlockLoads        int64 `json:"block_loads"`
	BlockLoadFailures int64 `json:"block_load_failures,omitempty"`
	// Preads counts positioned-read syscalls issued by the fallback tier.
	Preads int64 `json:"preads,omitempty"`
	// CachedBlocks / CacheCapacity describe the cold-block LRU.
	CachedBlocks  int `json:"cached_blocks"`
	CacheCapacity int `json:"cache_capacity"`
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
	st := Stats{
		Slots:             s.g.nonzero,
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
		Preads:            s.preads.Load(),
		CacheCapacity:     s.cache.capacity,
		FileBytes:         s.g.fileSize,
		IndexBytes:        s.g.hotOff - s.g.samplesOff + s.g.fileSize - s.g.crcsOff,
		Families:          s.Families(),
	}
	if s.cache.lru != nil {
		s.cache.mu.Lock()
		st.CachedBlocks = s.cache.lru.Len()
		s.cache.mu.Unlock()
	}
	return st
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
