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
// passed, and every later read of it is a window with no check. The file's
// index sections are served once they have passed indexCRC and the checks
// behind it, which the first read of the file makes.
//
// A key's slot is its rank among the stored keys. A rank file finds it in
// the key's rank record: the count of stored keys below the record, plus
// the sub-count below the key's word, plus the bits set below its bit. In
// a directory file the key directory gives the key's bucket's slot range,
// which a search for its low bytes narrows to the one slot.
//
// Store implements storage.Store and Enumerable: a layout is a read-only
// file. It is the one reader of a .wvls file, served in place
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

	// The index sections, the value words and the block checksums: windows
	// of data. rank holds a rank file's records and is nil in a directory
	// file, whose key's bucket is key>>lowShift.
	rank     []byte
	dir      packed
	lows     packed
	lowShift uint
	values   []byte
	crcs     []byte

	// verified holds one bit per block, set once the block's CRC has
	// passed; indexChecked is set once the index sections have passed
	// checkIndex.
	verified     []atomic.Uint64
	indexChecked atomic.Bool
	// A slot's block is slot>>blockShift when the block size is a power of
	// two (blockDiv 0), slot/blockDiv otherwise.
	blockShift uint
	blockDiv   uint

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
	if g.rank() {
		s.rank = data[g.rankOff:g.dirOff]
	} else {
		s.dir = newPacked(data[g.dirOff:g.lowsOff], g.dirWidth())
		s.lows = newPacked(data[g.lowsOff:g.blocksOff], g.lowWidth)
		s.lowShift = uint(8 * g.lowWidth)
	}
	s.values = data[g.blocksOff:g.crcsOff]
	s.crcs = data[g.crcsOff:]
	if g.blockSize&(g.blockSize-1) == 0 {
		s.blockShift = uint(bits.TrailingZeros(uint(g.blockSize)))
	} else {
		s.blockDiv = uint(g.blockSize)
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

// checkIndex checks the file's index sections once: against indexCRC,
// then checkRank or checkOrder. The first check that passes is remembered,
// one that fails is not, so every later read checks again and fails again.
func (s *Store) checkIndex() error {
	if s.indexChecked.Load() {
		return nil
	}
	g := &s.g
	sum, want := crc32.ChecksumIEEE(s.data[g.rankOff:g.blocksOff]), binary.LittleEndian.Uint32(s.crcs[4*g.numBlocks:])
	if sum != want {
		return fmt.Errorf("layout: key index checksum mismatch (file %08x, computed %08x)", want, sum)
	}
	check := s.checkOrder
	if g.rank() {
		check = s.checkRank
	}
	if err := check(); err != nil {
		return err
	}
	s.indexChecked.Store(true)
	return nil
}

// record returns rank record r: the count of stored keys below it, its
// word of sub-counts and its eight words.
func (s *Store) record(r int) (below, subs uint64, words [8]uint64) {
	rec := s.rank[rankRecord*r:][:rankRecord]
	for j := range words {
		words[j] = binary.LittleEndian.Uint64(rec[16+8*j:])
	}
	return binary.LittleEndian.Uint64(rec), binary.LittleEndian.Uint64(rec[8:]), words
}

// checkRank checks what indexCRC cannot, a rank section that was written
// wrong: that each record's count is the bits set in the records before
// it, and the last one's with them nonzero, and that each record's
// sub-counts are the bits set in its words, so every slot a lookup
// computes lies in the blocks and no two keys share one; and that no bit
// is set at or past cells, so a walk hands over no key outside the domain.
func (s *Store) checkRank() error {
	g := &s.g
	var below uint64
	for r := 0; r < g.records; r++ {
		count, subs, words := s.record(r)
		if count != below {
			return fmt.Errorf("layout: rank record %d counts %d stored keys below it, the records before it hold %d", r, count, below)
		}
		want, total := subCounts(&words)
		if subs != want {
			return fmt.Errorf("layout: rank record %d holds sub-counts %#x, its words %#x", r, subs, want)
		}
		below += uint64(total)
	}
	if below != uint64(g.nonzero) {
		return fmt.Errorf("layout: rank records hold %d stored keys, the header announces %d", below, g.nonzero)
	}
	last := g.records - 1
	_, _, words := s.record(last)
	for j, word := range words {
		if rest := g.cells - (last<<9 + j<<6); rest < 64 && word>>max(rest, 0) != 0 {
			return fmt.Errorf("layout: rank word %d marks a key at or past the domain's end %d", last<<3+j, g.cells)
		}
	}
	return nil
}

// checkOrder checks what indexCRC cannot, a key directory that was written
// wrong: that dir rises from 0 to nonzero, so every bucket's slot range
// lies in lows, and that the stored keys ascend inside the domain, so a
// search of a bucket's lows finds a stored key or proves it absent, never
// misreads one.
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

// keyAt returns the key a directory file stores at slot, which must follow
// the slot of the call before: *bucket, 0 before the first call, climbs dir
// to slot's bucket.
func (s *Store) keyAt(slot int, bucket *int) int {
	for uint64(slot) >= s.dir.at(*bucket+1) {
		*bucket++
	}
	return *bucket<<s.lowShift | int(s.lows.at(slot))
}

// findKey resolves key, inside the domain, to its rank among the stored
// keys, which is its slot, and reports whether it is stored.
func (s *Store) findKey(key int) (slot int, ok bool) {
	if s.rank != nil {
		slot, stored := rankSlot(s.rank, uint(key))
		return int(slot), stored == 1
	}
	return s.searchKey(key)
}

// searchKey is a directory file's lookup: a search for key's low bytes in
// the slot range dir gives its bucket.
func (s *Store) searchKey(key int) (slot int, ok bool) {
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

// blockOf returns the block slot lies in.
func (s *Store) blockOf(slot int) int {
	if s.blockDiv != 0 {
		return int(uint(slot) / s.blockDiv)
	}
	return int(uint(slot) >> s.blockShift)
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
// stored one (hit) its value from its block, checked first if it is not
// yet verified.
func (s *Store) get(k int, d *damage) (v float64, hit bool, err error) {
	if k < 0 || k >= s.g.cells {
		return 0, false, fmt.Errorf("key out of range [0,%d)", s.g.cells)
	}
	slot, ok := s.findKey(k)
	if !ok {
		return 0, false, nil
	}
	b := s.blockOf(slot)
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

// BatchGetCtx implements storage.Store. A run of keys whose values lie in
// verified blocks is served by gather; anything else — a block not yet
// checked, a key out of range — takes one lookup and block check per key
// (get). A key inside the domain that is not stored is zero (like the
// sparse store). Failures are per-key — an unreadable or corrupt block
// fails exactly the positions that resolve into it, reported via
// *storage.BatchError, and every other position holds a valid value.
// Cancellation is observed between strides and returned whole.
func (s *Store) BatchGetCtx(ctx context.Context, keys []int, dst []float64) error {
	if len(keys) != len(dst) {
		panic("layout: BatchGetCtx keys/dst length mismatch")
	}
	if err := ctx.Err(); err != nil {
		return err
	}
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
		return &storage.BatchError{Failed: storage.FailAt(nil, keys, nil, err)}
	}
	// The hits are tallied here and added to the shared counter once a
	// call: gather's loops hold no locked instruction.
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
		if n, hits := s.gather(keys[i:min(len(keys), checked+batchCancelStride)], dst[i:]); n > 0 {
			cold += int64(hits)
			i += n
			continue
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

// gather serves the longest prefix of keys that lie inside the domain and,
// if stored, in a verified block, and returns its length, 0 when the first
// key does not, and the stored keys among them. It makes two tight loops
// with no locked instruction in either: the first resolves each key to its
// slot and notes it in dst — slot<<1|1 as a float64's bits, 0 for a key
// that is not stored — and the second loads the noted slots' values over
// the notes. A drain's random keys miss the cache in both loops, and no
// miss waits on the one before it, so the misses overlap instead of
// queueing.
func (s *Store) gather(keys []int, dst []float64) (n, hits int) {
	if s.rank != nil {
		n, hits = s.resolveRank(keys, dst)
	} else {
		n, hits = s.resolveDirectory(keys, dst)
	}
	if hits == 0 {
		return n, 0
	}
	values := s.values
	for q, note := range dst[:n] {
		c := math.Float64bits(note)
		dst[q] = math.Float64frombits(binary.LittleEndian.Uint64(values[8*(c>>1):]) & -(c & 1))
	}
	return n, hits
}

// resolveRank is gather's first loop over a rank file. It takes no branch
// on what it loads — a key that is not stored computes a slot too, which
// its note masks to 0 — so an absent key mispredicts nothing and the rank
// records' misses overlap. Its lookup is findKey's, rankSlot. The block
// check of an absent key's slot is harmless: at worst it ends the run at
// that key, which get serves as 0 without a block.
func (s *Store) resolveRank(keys []int, dst []float64) (n, hits int) {
	rank, cells, blocks := s.rank, uint(s.g.cells), uint(s.g.numBlocks)
	for ; n < len(keys); n++ {
		k := uint(keys[n])
		if k >= cells {
			break
		}
		slot, stored := rankSlot(rank, k)
		if b := s.blockOf(int(slot)); uint(b) < blocks && s.verified[b>>6].Load()&(1<<(b&63)) == 0 {
			break
		}
		dst[n] = math.Float64frombits((uint64(slot)<<1 | 1) & -stored)
		hits += int(stored)
	}
	return n, hits
}

// resolveDirectory is gather's first loop over a directory file: a search
// of the key's bucket per key.
func (s *Store) resolveDirectory(keys []int, dst []float64) (n, hits int) {
	for cells := uint(s.g.cells); n < len(keys); n++ {
		k := keys[n]
		if uint(k) >= cells {
			break
		}
		slot, ok := s.searchKey(k)
		if !ok {
			dst[n] = 0
			continue
		}
		if b := s.blockOf(slot); s.verified[b>>6].Load()&(1<<(b&63)) == 0 {
			break
		}
		dst[n] = math.Float64frombits(uint64(slot)<<1 | 1)
		hits++
	}
	return n, hits
}

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

// Shape names the file's shape: "rank" (a rank record per 512 cells) or
// "directory" (a key directory and each key's low bytes).
func (s *Store) Shape() string { return s.g.shape() }

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
// file size: the header, the index — "rank words" in a rank file, "key
// index" (the directory and the lows) in a directory file — and the values
// with their checksums.
func (s *Store) Sections() []Section {
	g := &s.g
	index := "key index"
	if g.rank() {
		index = "rank words"
	}
	return []Section{{"header", g.rankOff}, {index, g.blocksOff - g.rankOff}, {"values", g.fileSize - g.blocksOff}}
}

// StackName names the layout in storage.Describe.
func (s *Store) StackName() string { return "layout" }

// Verify checks what a read of the whole file would: the index sections,
// then every block, each once. A damaged file is an
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
// met, a block or the index failing its check. It reads the blocks front to
// back, each checked, beside a keyCursor over the index, which must have
// passed its check first; it never looks a key up. A stored zero, +0 or -0,
// is not handed over. A walk puts nothing on the Go heap.
func (s *Store) Walk(fn func(key int, value float64) bool) error {
	defer runtime.KeepAlive(s) // fn reads values out of the bytes
	if err := s.checkIndex(); err != nil {
		return err
	}
	g, emitted, keys := &s.g, 0, keyCursor{s: s, w: -1}
	for b := 0; b < g.numBlocks; b++ {
		vals, err := s.block(b)
		if err != nil {
			return err
		}
		for q := 0; q < len(vals); q += 8 {
			key := keys.next()
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

// keyCursor hands over the stored keys in ascending order, one a call of
// next, straight from the index: a rank file's set bits, word by word, or a
// directory file's buckets and lows, slot by slot. The index must have
// passed checkIndex, which leaves exactly nonzero keys to hand over.
type keyCursor struct {
	s      *Store
	slot   int    // directory: the next slot
	bucket int    // directory: that slot's bucket
	w      int    // rank: the word being walked, -1 before the first
	word   uint64 // rank: its set bits not yet handed over
}

func (c *keyCursor) next() int {
	if c.s.rank == nil {
		key := c.s.keyAt(c.slot, &c.bucket)
		c.slot++
		return key
	}
	for c.word == 0 {
		c.w++
		c.word = binary.LittleEndian.Uint64(c.s.rank[rankRecord*(c.w>>3)+16+8*(c.w&7):])
	}
	key := c.w<<6 | bits.TrailingZeros64(c.word)
	c.word &= c.word - 1
	return key
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	// Shape names the file's index: "rank" or "directory" (see Store.Shape).
	Shape string `json:"shape"`
	// Slots is the number of stored values, the nonzero coefficients, held
	// in Blocks blocks of BlockSize.
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
	// neither header nor value words (the index and the checksums).
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
		Shape:             s.g.shape(),
		Slots:             s.g.nonzero,
		Blocks:            s.g.numBlocks,
		BlockSize:         s.g.blockSize,
		ColdHits:          s.coldHits.Load(),
		BlockLoads:        s.blockLoads.Load(),
		BlockLoadFailures: s.blockLoadFails.Load(),
		VerifiedBlocks:    verified,
		FileBytes:         s.g.fileSize,
		IndexBytes:        s.g.blocksOff - s.g.rankOff + s.g.fileSize - s.g.crcsOff,
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
	s.data, s.mapping, s.fileMapped, s.rank, s.values = nil, nil, false, nil, nil
	if mapping == nil {
		return nil
	}
	return munmapFile(mapping)
}

var _ storage.Enumerable = (*Store)(nil)
