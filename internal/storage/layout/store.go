package layout

import (
	"container/list"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/storage"
)

// Store serves a .wvls layout file through a three-tier read path:
//
//  1. the mmap hot region — the most important hotCount coefficients, raw
//     float64 words read zero-copy from the mapping;
//  2. an LRU of decompressed cold blocks — a cold retrieval decodes its
//     whole block once (CRC-verified) and neighbors in schedule order hit
//     the cached decode;
//  3. positioned reads — when mmap is unavailable (disabled or unsupported)
//     every section falls back to pread, with the index sections loaded
//     into memory at open so key lookup stays O(log n) without syscalls.
//
// Key→slot resolution is a binary search over the ascending key index,
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
	dir      []blockRef

	// In-memory copies of the index sections, loaded only on the pread
	// fallback path (a binary search through pread would cost O(log n)
	// syscalls per key).
	keysMem      []uint64
	slotOfMem    []uint32
	keyOfSlotMem []uint64

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

// DefaultCacheBlocks is the default capacity of the decoded-block LRU.
const DefaultCacheBlocks = 64

// Options configures Open.
type Options struct {
	// DisableMmap forces the positioned-read fallback path (used by tests;
	// the open also falls back automatically when mmap fails).
	DisableMmap bool
	// CacheBlocks bounds the decoded cold-block LRU; 0 selects
	// DefaultCacheBlocks, negative disables caching.
	CacheBlocks int
}

// Open opens a layout file. The header is CRC-verified and its geometry
// validated against the actual file before any data is trusted; a file that
// fails either check is rejected here rather than misread later.
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
	if v := binary.LittleEndian.Uint16(prelude[4:6]); v != version {
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

	if !opts.DisableMmap {
		if data, err := mmapFile(f, st.Size()); err == nil {
			s.data = data
		}
	}
	// Block directory: small (16 bytes per block), always resident.
	s.dir = make([]blockRef, s.g.numBlocks)
	dirBytes, err := s.section(s.g.blockDirOff, int64(s.g.numBlocks)*16)
	if err != nil {
		_ = s.close()
		return nil, fmt.Errorf("layout: reading block directory: %w", err)
	}
	for b := range s.dir {
		s.dir[b] = blockRef{
			off: binary.LittleEndian.Uint64(dirBytes[b*16:]),
			len: binary.LittleEndian.Uint32(dirBytes[b*16+8:]),
			crc: binary.LittleEndian.Uint32(dirBytes[b*16+12:]),
		}
		end := int64(s.dir[b].off) + int64(s.dir[b].len)
		if int64(s.dir[b].off) < s.g.blocksOff || end > s.g.fileSize {
			_ = s.close()
			return nil, fmt.Errorf("layout: block %d extent [%d,%d) outside blocks section", b, s.dir[b].off, end)
		}
	}
	if s.data == nil {
		// Fallback: resident index (mmap would have served it zero-copy).
		if err := s.loadIndex(); err != nil {
			_ = s.close()
			return nil, err
		}
	}
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

// loadIndex materializes the three index sections for the pread fallback.
func (s *Store) loadIndex() error {
	n := s.g.nonzero
	load := func(off int64, width int) ([]byte, error) {
		buf := make([]byte, int64(n)*int64(width))
		r := io.NewSectionReader(s.f, off, int64(len(buf)))
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("layout: loading index: %w", err)
		}
		return buf, nil
	}
	kb, err := load(s.g.keysOff, 8)
	if err != nil {
		return err
	}
	sb, err := load(s.g.slotOfOff, 4)
	if err != nil {
		return err
	}
	ob, err := load(s.g.keyOfSlotOff, 8)
	if err != nil {
		return err
	}
	s.keysMem = make([]uint64, n)
	s.slotOfMem = make([]uint32, n)
	s.keyOfSlotMem = make([]uint64, n)
	for i := 0; i < n; i++ {
		s.keysMem[i] = binary.LittleEndian.Uint64(kb[i*8:])
		s.slotOfMem[i] = binary.LittleEndian.Uint32(sb[i*4:])
		s.keyOfSlotMem[i] = binary.LittleEndian.Uint64(ob[i*8:])
	}
	return nil
}

// keyAt returns the i-th smallest stored key.
func (s *Store) keyAt(i int) int {
	if s.data != nil {
		return int(binary.LittleEndian.Uint64(s.data[s.g.keysOff+int64(i)*8:]))
	}
	return int(s.keysMem[i])
}

// slotAt returns the slot of the i-th smallest stored key.
func (s *Store) slotAt(i int) int {
	if s.data != nil {
		return int(binary.LittleEndian.Uint32(s.data[s.g.slotOfOff+int64(i)*4:]))
	}
	return int(s.slotOfMem[i])
}

// KeyOfSlot returns the key stored at schedule slot j — the layout's
// retrieval order. Draining keys in this order is sequential I/O.
func (s *Store) KeyOfSlot(j int) int {
	if s.data != nil {
		return int(binary.LittleEndian.Uint64(s.data[s.g.keyOfSlotOff+int64(j)*8:]))
	}
	return int(s.keyOfSlotMem[j])
}

// lookupSlot resolves key → slot. The sequential hint is checked first:
// schedule-order readers advance one slot per retrieval, so the expected
// next slot usually holds the requested key and the binary search is
// skipped entirely.
func (s *Store) lookupSlot(key int) (int, bool) {
	n := s.g.nonzero
	if h := int(s.hint.Load()); h >= 0 && h < n && s.KeyOfSlot(h) == key {
		s.hint.Store(int64(h + 1))
		s.hintHits.Add(1)
		return h, true
	}
	i := sort.Search(n, func(i int) bool { return s.keyAt(i) >= key })
	if i >= n || s.keyAt(i) != key {
		return 0, false
	}
	slot := s.slotAt(i)
	s.hint.Store(int64(slot + 1))
	return slot, true
}

// hotValue reads the raw value of a hot slot.
func (s *Store) hotValue(slot int) (float64, error) {
	off := s.g.hotOff + int64(slot)*8
	if s.data != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(s.data[off:])), nil
	}
	var buf [8]byte
	s.preads.Add(1)
	if _, err := s.f.ReadAt(buf[:], off); err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[:])), nil
}

// blockCache is the decoded cold-block LRU (tier 2).
type blockCache struct {
	mu       sync.Mutex
	capacity int
	lru      *list.List
	index    map[int]*list.Element
}

// blockEntry is one decoded block: keys ascending, plus raw fixed-width
// windows over the slot→rank permutation and the slot-order value words.
// The windows stay as file bytes — zero-copy views of the mmap when one
// is live — and decode on access; a full drain touches each entry once
// either way, and partial reads skip the rest.
type blockEntry struct {
	id        int
	keys      []int
	rankBytes []byte
	valBytes  []byte
	quantized bool
}

// rank returns the ascending-key position holding the block's q-th slot.
// Range-checking the result against keys is the caller's job (a corrupt
// permutation must become a per-key error, not a panic).
func (e *blockEntry) rank(q int) int {
	return int(binary.LittleEndian.Uint16(e.rankBytes[q*2:]))
}

// val decodes the value of the block's q-th slot.
func (e *blockEntry) val(q int) float64 {
	if e.quantized {
		return float64(math.Float32frombits(binary.LittleEndian.Uint32(e.valBytes[q*4:])))
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(e.valBytes[q*8:]))
}

// block returns the decoded block b, from cache or by a CRC-verified load.
// Loads run under the cache lock: concurrent cold misses serialize, which
// keeps every block decoded at most once at a time (the drain pattern loads
// each block exactly once anyway).
func (s *Store) block(b int) (*blockEntry, error) {
	c := &s.cache
	if c.capacity > 0 {
		c.mu.Lock()
		if el, ok := c.index[b]; ok {
			c.lru.MoveToFront(el)
			ent := el.Value.(*blockEntry)
			c.mu.Unlock()
			return ent, nil
		}
		defer c.mu.Unlock()
	}
	ent, err := s.loadBlock(b)
	if err != nil {
		return nil, err
	}
	if c.capacity > 0 {
		for c.lru.Len() >= c.capacity {
			oldest := c.lru.Back()
			delete(c.index, oldest.Value.(*blockEntry).id)
			c.lru.Remove(oldest)
		}
		c.index[b] = c.lru.PushFront(ent)
	}
	return ent, nil
}

// loadBlock reads, CRC-verifies and decodes block b.
func (s *Store) loadBlock(b int) (*blockEntry, error) {
	ref := s.dir[b]
	blob, err := s.section(int64(ref.off), int64(ref.len))
	if err != nil {
		s.blockLoadFails.Add(1)
		obsBlockLoadFail()
		return nil, fmt.Errorf("layout: reading block %d: %w", b, err)
	}
	if got := crc32.ChecksumIEEE(blob); got != ref.crc {
		s.blockLoadFails.Add(1)
		obsBlockLoadFail()
		return nil, fmt.Errorf("layout: block %d checksum mismatch (file %08x, computed %08x)", b, ref.crc, got)
	}
	wantSlots := s.g.blockSize
	if last := s.g.nonzero - s.g.hotCount - b*s.g.blockSize; last < wantSlots {
		wantSlots = last
	}
	keys, rankBytes, valBytes, err := decodeBlock(blob, s.Quantized(), wantSlots)
	if err != nil {
		s.blockLoadFails.Add(1)
		obsBlockLoadFail()
		return nil, fmt.Errorf("layout: block %d: %w", b, err)
	}
	s.blockLoads.Add(1)
	obsBlockLoad()
	return &blockEntry{id: b, keys: keys, rankBytes: rankBytes, valBytes: valBytes, quantized: s.Quantized()}, nil
}

// serveRun serves the longest prefix of keys[i:] that continues slot by
// slot from the resolved start — the common shape of a progressive drain,
// whose batches are exactly the layout's physical order. The caller has
// already resolved slot for keys[i]; the run extends while each next key is
// the next slot's key, so the per-key cost inside a run is one compare and
// one store instead of a hint check, a tier dispatch and a block-cache
// lock. Returns how many positions were served (≥1 on success); an error
// means position i itself failed and nothing was served.
func (s *Store) serveRun(keys []int, dst []float64, i, slot int) (int, error) {
	if slot < s.g.hotCount {
		// Hot run: raw float64 words, zero-copy under mmap. The mmap loop
		// hoists both section windows — key verification walks the
		// keyOfSlot section sequentially, which is what makes the run cost
		// two adjacent loads and a compare per key.
		n := 0
		if s.data != nil {
			kos := s.data[s.g.keyOfSlotOff+int64(slot)*8:]
			hot := s.data[s.g.hotOff+int64(slot)*8:]
			max := s.g.hotCount - slot
			if rest := len(keys) - i; rest < max {
				max = rest
			}
			for n < max && keys[i+n] == int(binary.LittleEndian.Uint64(kos[n*8:])) {
				dst[i+n] = math.Float64frombits(binary.LittleEndian.Uint64(hot[n*8:]))
				n++
			}
		} else {
			for i+n < len(keys) && slot+n < s.g.hotCount && keys[i+n] == s.KeyOfSlot(slot+n) {
				v, err := s.hotValue(slot + n)
				if err != nil {
					if n == 0 {
						return 0, err
					}
					break
				}
				dst[i+n] = v
				n++
			}
		}
		if n == 0 {
			// Contract violation: lookupSlot said keys[i] lives at slot.
			return 0, fmt.Errorf("layout: slot %d does not hold key %d (index disagrees with itself)", slot, keys[i])
		}
		s.hotHits.Add(int64(n))
		obsHotHits(int64(n))
		s.hint.Store(int64(slot + n))
		return n, nil
	}
	// Cold run: decode the block once, verify the run's start against the
	// block's own key list through the permutation, then serve slot-order
	// values directly — each subsequent key verified against the
	// sequential keyOfSlot index section.
	b := (slot - s.g.hotCount) / s.g.blockSize
	ent, err := s.block(b)
	if err != nil {
		return 0, err
	}
	q := slot - s.g.hotCount - b*s.g.blockSize
	if q >= len(ent.keys) {
		return 0, fmt.Errorf("layout: slot %d beyond block %d's %d entries (index/block disagree)", slot, b, len(ent.keys))
	}
	if p := ent.rank(q); p >= len(ent.keys) || ent.keys[p] != keys[i] {
		return 0, fmt.Errorf("layout: slot %d of block %d does not hold key %d (index/block disagree)", slot, b, keys[i])
	}
	n := 0
	if !ent.quantized && s.data != nil {
		kos := s.data[s.g.keyOfSlotOff+int64(slot)*8:]
		vb := ent.valBytes[q*8:]
		max := len(ent.keys) - q
		if rest := len(keys) - i; rest < max {
			max = rest
		}
		for n < max && keys[i+n] == int(binary.LittleEndian.Uint64(kos[n*8:])) {
			dst[i+n] = math.Float64frombits(binary.LittleEndian.Uint64(vb[n*8:]))
			n++
		}
	} else {
		for i+n < len(keys) && q+n < len(ent.keys) && keys[i+n] == s.KeyOfSlot(slot+n) {
			dst[i+n] = ent.val(q + n)
			n++
		}
	}
	s.coldHits.Add(int64(n))
	obsColdHits(int64(n))
	s.hint.Store(int64(slot + n))
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
		slot, ok := s.lookupSlot(k)
		if !ok {
			dst[i] = 0
			i++
			continue
		}
		n, err := s.serveRun(keys, dst, i, slot)
		if err != nil {
			failed = append(failed, storage.KeyError{Index: i, Key: k, Err: err})
			i++
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

// Meta returns the embedded database identity, or nil for layouts written
// without one (e.g. converted from a bare .wvfs coefficient file).
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

// BlockExtent returns the file extent of cold block b.
func (s *Store) BlockExtent(b int) Extent {
	return Extent{Off: int64(s.dir[b].off), Len: int(s.dir[b].len)}
}

// ConcurrentSafe implements the storage.IsConcurrent capability check: the
// mapping is immutable, positioned reads are kernel-concurrent, and the
// cache and counters synchronize themselves.
func (s *Store) ConcurrentSafe() bool { return true }

// ForEachNonzero implements storage.Enumerable in slot (schedule) order —
// the order that costs one sequential pass: the hot region streams from the
// mapping and each cold block is decoded exactly once. Enumeration order is
// unspecified by the interface; callers that need key order sort.
func (s *Store) ForEachNonzero(fn func(key int, value float64) bool) {
	for j := 0; j < s.g.hotCount; j++ {
		v, err := s.hotValue(j)
		if err != nil {
			panic(fmt.Sprintf("layout: enumerating slot %d: %v", j, err))
		}
		if v != 0 && !fn(s.KeyOfSlot(j), v) {
			return
		}
	}
	for b := 0; b < s.g.numBlocks; b++ {
		ent, err := s.block(b)
		if err != nil {
			panic(fmt.Sprintf("layout: enumerating block %d: %v", b, err))
		}
		for q := range ent.keys {
			if v := ent.val(q); v != 0 && !fn(ent.keys[ent.rank(q)], v) {
				return
			}
		}
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
	// decoded blocks (cached or freshly loaded).
	HotHits  int64 `json:"hot_hits"`
	ColdHits int64 `json:"cold_hits"`
	// HintHits counts key lookups resolved by the sequential-slot hint
	// (no binary search): high on schedule-order drains.
	HintHits int64 `json:"hint_hits"`
	// BlockLoads counts physical block decodes (cold-cache misses);
	// BlockLoadFailures counts reads rejected by checksum or decode.
	BlockLoads        int64 `json:"block_loads"`
	BlockLoadFailures int64 `json:"block_load_failures,omitempty"`
	// Preads counts positioned-read syscalls issued by the fallback tier.
	Preads int64 `json:"preads,omitempty"`
	// CachedBlocks / CacheCapacity describe the decoded-block LRU.
	CachedBlocks  int `json:"cached_blocks"`
	CacheCapacity int `json:"cache_capacity"`
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
