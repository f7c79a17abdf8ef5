package layout

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"os"
	"runtime"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/storage"
)

// Store serves a .wvls layout file from its bytes in memory: a mapping of
// the file (Open), or its bytes read once (Load). Every
// value is read from a verified block: a block's CRC is checked the first
// time any of its slots is served, one bit per block remembers that it
// passed, and every later read of it is a window with no check. A sparse
// file's key index is served once it has passed indexCRC, which the first
// read of the file checks.
//
// In a dense file the slot is the key. In a sparse one it is the key's rank
// among the stored keys: the key index gives its bucket's slot range, which
// a search for its low bytes narrows to the one slot.
//
// Store implements storage.Store and Enumerable, not Updatable: a layout is
// a read-only file. It is the one reader of a .wvls file, served in place
// (Open) or from a copy read once (Load). All methods are safe for
// concurrent use. Every exported method that reads the file's bytes
// (BatchGetCtx, Verify, Walk) keeps the store reachable until its last read
// of them with runtime.KeepAlive, so that a loaded store's finalizer never
// releases bytes a call is still reading.
type Store struct {
	data    []byte // the whole file
	mapping []byte // the mapping data is a window of; nil for heap bytes
	// fileMapped says mapping maps the file, whose pages DropPages may hand
	// back; an anonymous mapping holds the only copy of what was read.
	fileMapped bool
	g          geometry
	meta       *Meta

	// The index sections and the block checksums: windows of data. A key's
	// bucket is key>>lowShift.
	dir      packed
	lows     packed
	lowShift uint
	crcs     []byte

	// verified holds one bit per block, set once the block's CRC has
	// passed; indexChecked is set once a sparse file's index sections have
	// passed indexCRC (at open for a dense file, which has none).
	verified     []atomic.Uint64
	indexChecked atomic.Bool
	// cells is the value words of a dense file, which gatherVerified serves
	// directly; nil for a sparse one. A key's block is key>>blockShift when
	// the block size is a power of two (blockDiv 0), key/blockDiv otherwise.
	cells      []byte
	blockShift uint
	blockDiv   uint

	retrievals     atomic.Int64
	coldHits       atomic.Int64
	blockLoads     atomic.Int64
	blockLoadFails atomic.Int64
}

// Open opens a layout file and serves it in place, from a mapping of the
// file (from its bytes read once where it cannot be mapped). The header is
// CRC-verified and its geometry validated against the actual file before
// any data is trusted; a file that fails either check is rejected here
// rather than misread later. Nothing past the header is checked at open:
// blocks are checked by their first read, the index sections by the first
// read of the file. Close releases the mapping.
func Open(path string) (*Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // a mapping outlives its descriptor
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	m, err := mmapFile(f, st.Size())
	if err != nil {
		return Load(f)
	}
	s := &Store{data: m, mapping: m, fileMapped: true}
	if err := s.open(); err != nil {
		return nil, err
	}
	return s, nil
}

// Load reads the view file r holds, from its current offset on, into
// memory once and checks its header as Open does. It never maps r: the
// store holds a copy, which later changes to r's file do not reach. The
// copy is an anonymous mapping, not Go heap (the heap where the platform
// has none), of the exact size when r tells its length first (a regular
// file's size, a bytes.Reader's Len) and a growing one otherwise (see
// readStream); a finalizer releases it once the store is unreachable, and
// Close releases it sooner.
func Load(r io.Reader) (*Store, error) {
	s := new(Store)
	runtime.SetFinalizer(s, (*Store).Close)
	if err := s.read(r); err != nil {
		_ = s.Close()
		return nil, fmt.Errorf("layout: reading file: %w", err)
	}
	if err := s.open(); err != nil {
		return nil, err
	}
	return s, nil
}

// read sets s.data to the bytes r holds from its current offset on.
func (s *Store) read(r io.Reader) error {
	n := -1
	switch r := r.(type) {
	case *os.File:
		st, err := r.Stat()
		if err != nil || !st.Mode().IsRegular() {
			break
		}
		if at, err := r.Seek(0, io.SeekCurrent); err == nil && at <= st.Size() {
			n = int(st.Size() - at)
		}
	case interface{ Len() int }: // bytes.Reader, strings.Reader, bytes.Buffer
		n = r.Len()
	}
	if n < 0 {
		return s.readStream(r)
	}
	s.data = s.alloc(n)
	_, err := io.ReadFull(r, s.data)
	return err
}

// open checks the header of the file in s.data and sets up the windows of
// it the reads serve. A file that fails the check is released.
func (s *Store) open() error {
	data := s.data
	g, meta, err := readHeader(data)
	if err != nil {
		_ = s.Close()
		return err
	}
	s.g, s.meta = *g, meta
	s.verified = make([]atomic.Uint64, (g.numBlocks+63)/64)
	s.indexChecked.Store(g.dense())
	s.crcs = data[g.crcsOff:]
	s.dir = newPacked(data[g.dirOff:g.lowsOff], g.dirWidth())
	s.lows = newPacked(data[g.lowsOff:g.blocksOff], g.lowWidth)
	s.lowShift = uint(8 * g.lowWidth)
	if g.dense() {
		s.cells = data[g.blocksOff:g.crcsOff]
		if g.blockSize&(g.blockSize-1) == 0 {
			s.blockShift = uint(bits.TrailingZeros(uint(g.blockSize)))
		} else {
			s.blockDiv = uint(g.blockSize)
		}
	}
	return nil
}

// alloc returns n zeroed bytes: an anonymous mapping, which s.mapping then
// holds, or a heap slice where the kernel gives none.
func (s *Store) alloc(n int) []byte {
	if s.mapping = mapAnon(n); s.mapping != nil {
		return s.mapping
	}
	return make([]byte, n)
}

// readStream reads r to its end, trusting no size before the bytes arrive:
// into a buffer from alloc that doubles when it fills, each full one copied
// into its successor and released. In a mapping the pages past the file's
// end are never touched, so what stays resident is the file's size, and
// nothing of it is Go heap.
func (s *Store) readStream(r io.Reader) error {
	buf, n := s.alloc(64<<10), 0
	for {
		if n == len(buf) {
			full := s.mapping
			next := s.alloc(2 * n)
			copy(next, buf)
			buf = next
			if full != nil {
				_ = munmapFile(full)
			}
		}
		k, err := r.Read(buf[n:])
		n += k
		s.data = buf[:n]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// checkIndex checks a sparse file's index sections, dir and lows, once:
// against indexCRC, then checkOrder. The first check that passes is
// remembered, one that fails is not, so every later read checks again and
// fails again.
func (s *Store) checkIndex() error {
	if s.indexChecked.Load() {
		return nil
	}
	g := &s.g
	sum, want := crc32.ChecksumIEEE(s.data[g.dirOff:g.blocksOff]), binary.LittleEndian.Uint32(s.crcs[4*g.numBlocks:])
	if sum != want {
		return fmt.Errorf("layout: key index checksum mismatch (file %08x, computed %08x)", want, sum)
	}
	if err := s.checkOrder(); err != nil {
		return err
	}
	s.indexChecked.Store(true)
	return nil
}

// checkOrder checks what indexCRC cannot, an index that was written wrong:
// that dir rises from 0 to nonzero, so every bucket's slot range lies in
// lows, and that the stored keys ascend inside the domain, so a search of a
// bucket's lows finds a stored key or proves it absent, never misreads one.
func (s *Store) checkOrder() error {
	g := &s.g
	if first, last := s.dir.at(0), s.dir.at(g.buckets); first != 0 || last != uint64(g.nonzero) {
		return fmt.Errorf("layout: key directory runs from %d to %d, not from 0 to %d", first, last, g.nonzero)
	}
	for b := 0; b < g.buckets; b++ {
		if s.dir.at(b+1) < s.dir.at(b) {
			return fmt.Errorf("layout: key directory falls after bucket %d", b)
		}
	}
	bucket, prev := 0, -1
	for slot := 0; slot < g.nonzero; slot++ {
		key := s.keyAt(slot, &bucket)
		if key <= prev || key >= g.cells {
			return fmt.Errorf("layout: stored key %d at slot %d does not ascend inside [0,%d)", key, slot, g.cells)
		}
		prev = key
	}
	return nil
}

// keyAt returns the key stored at slot, which must follow the slot of the
// call before: *bucket, 0 before the first call, climbs dir to slot's bucket.
func (s *Store) keyAt(slot int, bucket *int) int {
	for uint64(slot) >= s.dir.at(*bucket+1) {
		*bucket++
	}
	return *bucket<<s.lowShift | int(s.lows.at(slot))
}

// findKey resolves key, inside the domain, to its rank among the stored
// keys, which is its slot: a search for its low bytes in the slot range dir
// gives its bucket.
func (s *Store) findKey(key int) (rank int, ok bool) {
	k := uint64(key)
	b := int(k >> s.lowShift)
	lo, end := int(s.dir.at(b)), int(s.dir.at(b+1))
	low := k & s.lows.mask
	for hi := end; lo < hi; {
		if mid := int(uint(lo+hi) >> 1); s.lows.at(mid) < low {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < end && s.lows.at(lo) == low
}

// block returns the value words of block b behind a passed CRC check. The
// first check that passes sets the block's bit and later calls skip it; two
// first readers may both check, and a block that fails is never marked, so
// every later read checks again.
func (s *Store) block(b int) ([]byte, error) {
	ext := s.BlockExtent(b)
	vals := s.data[ext.Off : ext.Off+int64(ext.Len)]
	word, bit := &s.verified[b/64], uint64(1)<<(b%64)
	if word.Load()&bit != 0 {
		return vals, nil
	}
	if err := s.g.checkBlock(s.crcs, b, vals); err != nil {
		s.blockLoadFails.Add(1)
		return nil, err
	}
	s.blockLoads.Add(1)
	// go 1.22 has no atomic Or: set the bit by compare-and-swap.
	for old := word.Load(); old&bit == 0 && !word.CompareAndSwap(old, old|bit); old = word.Load() {
	}
	return vals, nil
}

// damage is a block one BatchGetCtx call found failing its check, with
// the error it failed with: the call fails the block's other keys with it
// instead of checking the block again for each. The next call checks it
// afresh.
type damage struct {
	block int
	err   error
}

// get serves one key: 0 for an in-range key that is not stored, and for a
// stored one (hit) its value from its block. In a dense file the slot is the
// key; in a sparse one it is the rank findKey returns.
func (s *Store) get(k int, d *damage) (v float64, hit bool, err error) {
	if k < 0 || k >= s.g.cells {
		return 0, false, fmt.Errorf("key out of range [0,%d)", s.g.cells)
	}
	slot := k
	if !s.g.dense() {
		var ok bool
		if slot, ok = s.findKey(k); !ok {
			return 0, false, nil
		}
	}
	b := slot / s.g.blockSize
	if d.err != nil && d.block == b {
		return 0, false, d.err
	}
	vals, err := s.block(b)
	if err != nil {
		*d = damage{b, err}
		return 0, false, err
	}
	lo, _ := s.g.blockSlots(b)
	return math.Float64frombits(binary.LittleEndian.Uint64(vals[(slot-lo)*8:])), true, nil
}

// batchCancelStride is how many keys BatchGetCtx serves between context
// checks: frequent enough to abort a huge batch promptly, rare enough to
// stay off the per-key fast path.
const batchCancelStride = 1024

// BatchGetCtx implements storage.Store. A dense file serves each key of a
// verified block with one load; anything else takes one lookup per key
// (get). A key inside the domain that is not stored is zero (like the hash
// store). Failures are per-key — an unreadable or corrupt block fails
// exactly the positions that resolve into it, reported via
// *storage.BatchError, and every other position holds a valid value.
// Cancellation is observed between strides and returned whole.
func (s *Store) BatchGetCtx(ctx context.Context, keys []int, dst []float64) error {
	if len(keys) != len(dst) {
		panic("layout: BatchGetCtx keys/dst length mismatch")
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	s.retrievals.Add(int64(len(keys)))
	// EXPLAIN ANALYZE attribution: snapshot the counters around this call
	// and record the deltas. Exact for a run draining alone, approximate
	// (shared deltas) when concurrent runs interleave — the counters are
	// store-global. Nil profile skips the snapshots entirely.
	if prof := obs.ProfileFrom(ctx); prof != nil {
		cold0, loads0 := s.coldHits.Load(), s.blockLoads.Load()
		defer func() {
			prof.AddLayout(s.coldHits.Load()-cold0, s.blockLoads.Load()-loads0)
		}()
	}
	if err := s.checkIndex(); err != nil {
		failed := make([]storage.KeyError, len(keys))
		for i, k := range keys {
			failed[i] = storage.KeyError{Index: i, Key: k, Err: err}
		}
		return &storage.BatchError{Failed: failed}
	}
	// A dense file serves a run of keys in
	// verified blocks in two tight loops — check the run, then gather it —
	// with no calls and no locked instruction in either, so the cache misses
	// of a drain's random keys overlap instead of queueing: the gather costs
	// what the in-memory array's does. That is why the hits are tallied
	// here and added to the shared counter once a call. Anything else — a
	// block not yet checked, a key out of range, the sparse shape — takes
	// the general path below, a key at a time.
	var cold int64
	defer func() { s.coldHits.Add(cold) }()
	var failed []storage.KeyError
	var d damage
	i, checked := 0, 0
	for i < len(keys) {
		if i-checked >= batchCancelStride {
			if err := ctx.Err(); err != nil {
				return err
			}
			checked = i
		}
		if s.cells != nil {
			if n := s.gatherVerified(keys[i:min(len(keys), checked+batchCancelStride)], dst[i:]); n > 0 {
				cold += int64(n)
				i += n
				continue
			}
		}
		v, hit, err := s.get(keys[i], &d)
		if err != nil {
			failed = append(failed, storage.KeyError{Index: i, Key: keys[i], Err: err})
		} else {
			dst[i] = v
		}
		if hit {
			cold++
		}
		i++
	}
	runtime.KeepAlive(s)
	if len(failed) > 0 {
		return &storage.BatchError{Failed: failed}
	}
	return nil
}

// gatherVerified serves the longest prefix of keys that lie in verified
// blocks of s.cells and returns its length, 0 when the first key does not.
func (s *Store) gatherVerified(keys []int, dst []float64) int {
	cells, shift, div := s.cells, s.blockShift, s.blockDiv
	n := 0
	for ; n < len(keys); n++ {
		k := uint(keys[n])
		b := k >> shift
		if div != 0 {
			b = k / div
		}
		if k >= uint(len(cells)/8) || s.verified[b>>6].Load()&(1<<(b&63)) == 0 {
			break
		}
	}
	for q, k := range keys[:n] {
		dst[q] = math.Float64frombits(binary.LittleEndian.Uint64(cells[8*k:]))
	}
	return n
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

// Dense reports whether the file has the dense shape: every cell's value in
// key order, no index.
func (s *Store) Dense() bool { return s.g.dense() }

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
	return Extent{Off: s.g.blocksOff + int64(lo)*8, Len: (hi - lo) * 8}
}

// Section is one named byte range of the file, for size reports.
type Section struct {
	Name  string
	Bytes int64
}

// Sections lists the file's sections in file order; their sizes sum to the
// file size. The last is the values with their checksums; a dense file has
// only the header before it.
func (s *Store) Sections() []Section {
	g := &s.g
	values := Section{"values", g.fileSize - g.blocksOff}
	if g.dense() {
		return []Section{{"header", g.blocksOff}, values}
	}
	return []Section{{"header", g.dirOff}, {"key index", g.blocksOff - g.dirOff}, values}
}

// StackName names the layout in storage.Describe.
func (s *Store) StackName() string { return "layout" }

// Verify checks what a read of the whole file would: a sparse file's index
// sections, then every block, each once. A damaged file is an
// error here rather than a degraded read later. It puts nothing on the Go
// heap, and a block that passed before is not checked again.
func (s *Store) Verify() error {
	if err := s.checkIndex(); err != nil {
		return err
	}
	for b := 0; b < s.g.numBlocks; b++ {
		if _, err := s.block(b); err != nil {
			return err
		}
	}
	runtime.KeepAlive(s)
	return nil
}

// Walk implements storage.Enumerable: it hands fn every nonzero coefficient
// in ascending key order until fn returns false, and returns the damage it
// met, a block or the key index failing its check. It reads the blocks
// front to back, each checked, with the slot as the key in a dense file and
// the key index's next key in a sparse one, whose index must have passed
// its check first. A stored zero, +0 or -0, is not handed over. A walk puts
// nothing on the Go heap.
func (s *Store) Walk(fn func(key int, value float64) bool) error {
	defer runtime.KeepAlive(s) // fn reads values out of the bytes
	if err := s.checkIndex(); err != nil {
		return err
	}
	g, emitted, bucket := &s.g, 0, 0
	for b := 0; b < g.numBlocks; b++ {
		vals, err := s.block(b)
		if err != nil {
			return err
		}
		lo, _ := g.blockSlots(b)
		for q := 0; q < len(vals); q += 8 {
			key := lo + q/8
			if !g.dense() {
				key = s.keyAt(key, &bucket)
			}
			w := binary.LittleEndian.Uint64(vals[q:])
			if w<<1 == 0 {
				continue
			}
			emitted++
			if !fn(key, math.Float64frombits(w)) {
				return nil
			}
		}
	}
	if emitted != g.nonzero {
		return fmt.Errorf("layout: %d nonzero values, the header announces %d", emitted, g.nonzero)
	}
	return nil
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	// Dense marks the dense shape: every cell's value in key order, no
	// index.
	Dense bool `json:"dense"`
	// Slots is the number of stored values — the nonzero coefficients of a
	// sparse file, every cell of a dense one — held in Blocks blocks of
	// BlockSize.
	Slots  int `json:"slots"`
	Blocks int `json:"blocks"`
	// BlockSize is the block granularity in slots.
	BlockSize int `json:"block_size"`
	// ColdHits counts retrievals of stored keys, each served from a block.
	ColdHits int64 `json:"cold_hits"`
	// BlockLoads counts block checks that passed: each block's first read
	// (more only when two readers race to it). BlockLoadFailures counts
	// block checks that failed.
	BlockLoads        int64 `json:"block_loads"`
	BlockLoadFailures int64 `json:"block_load_failures,omitempty"`
	// VerifiedBlocks counts the blocks marked verified, which are read
	// without another check.
	VerifiedBlocks int `json:"verified_blocks"`
	// FileBytes is the size of the .wvls file; IndexBytes of them are
	// neither header nor value words (the key index and the checksums).
	FileBytes  int64 `json:"file_bytes"`
	IndexBytes int64 `json:"index_bytes"`
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	verified := 0
	for i := range s.verified {
		verified += bits.OnesCount64(s.verified[i].Load())
	}
	return Stats{
		Dense:             s.g.dense(),
		Slots:             s.g.slots,
		Blocks:            s.g.numBlocks,
		BlockSize:         s.g.blockSize,
		ColdHits:          s.coldHits.Load(),
		BlockLoads:        s.blockLoads.Load(),
		BlockLoadFailures: s.blockLoadFails.Load(),
		VerifiedBlocks:    verified,
		FileBytes:         s.g.fileSize,
		IndexBytes:        s.g.blocksOff - s.g.dirOff + s.g.fileSize - s.g.crcsOff,
	}
}

// DropPages hands the resident pages of the mapping back to the kernel (on
// Linux): the file stops counting in the process's resident set until a
// read faults its pages in again from the page cache. Reads are unaffected.
// An MVCC store calls it on a mapped version-0 base once a compaction has
// replaced it. A no-op on bytes that were read rather than mapped: their
// anonymous mapping holds the only copy, which the advice would zero.
func (s *Store) DropPages() {
	if s.fileMapped {
		dropPages(s.mapping)
	}
}

// Close releases the mapping, if there is one; a second call does
// nothing, so a loaded store's finalizer may follow it. Not safe to call
// while retrievals are in flight.
func (s *Store) Close() error {
	mapping := s.mapping
	s.data, s.mapping, s.fileMapped, s.cells = nil, nil, false, nil
	if mapping == nil {
		return nil
	}
	return munmapFile(mapping)
}

var _ storage.Enumerable = (*Store)(nil)
