// Package layout implements persistent storage: the .wvls on-disk format,
// the one file a database is saved to. A file has one of two shapes, chosen
// by Encode from the counts alone. It is written once (Encode; every writer
// of a path goes through WriteFile, which never truncates a file a reader
// may have mapped) and read by one reader, Store: in place through Open,
// which maps it, or from a copy through Load, which reads it once.
//
// Both shapes hold the nonzero coefficients only, their values in ascending
// key order with no other physical order: the engine asks for coefficients
// by query importance, which no write-time order follows, and each
// retrieval is one random read. They differ in the index that turns a key
// into its slot, the key's rank among the stored keys.
//
// The rank shape keeps one 80-byte record per 512 cells, Vigna's rank9
// ("Broadword Implementation of Rank/Select Queries"): the count of stored
// keys below the record, the counts below each of its words 1…7 inside it,
// nine bits each, and its eight words, the bit i of word w set iff cell
// 512r+64w+i is stored. A key is absent iff its bit is clear; its slot is
// the record's count plus its word's count plus the bits set below it in
// its word: three loads from one record and one popcount. The directory
// shape keeps a bucket directory and each stored key's low bytes (below).
// Encode writes the rank shape iff its index is the smaller of the two,
// which a count decides: 0.15625 bytes a cell against about 1–1.1 bytes a
// key, so rank from about 15 % full up. No shape stores a zero: the dense
// array of every cell, which cost 8 bytes a cell, is gone.
//
// File shape, version 2 (all integers little-endian):
//
//	magic    "WVLS"                  4 bytes
//	version  uint16                  2
//	flags    uint16                  bit 0: refused (float32 block values)
//	                                 bit 1: refused (the dense shape)
//	                                 bit 2: rank shape
//	hdrLen   uint32                  length of the header blob
//	hdrCRC   uint32                  IEEE CRC-32 of the header blob
//	header blob (hdrLen bytes):
//	  cells, nonzero uint64
//	  reserved uint64                0 (see below)
//	  blockSize uint32; mass float64
//	  meta flag uint8, then the optional schema/filter metadata
//	  reserved uint16                0
//	  reserved uint64                0
//	data sections, back to back in this order:
//	  rank      records × 80         rank shape: per 512 cells the keys below,
//	                                 the sub-counts, then eight words
//	  dir       (buckets+1) × dw     directory shape: stored keys below each
//	                                 bucket, cumulative
//	  lows      nonzero × lw         directory shape: each stored key's low lw
//	                                 bytes, ascending key
//	  blocks    nonzero × float64    the values, in ascending key order
//	  crcs      numBlocks × uint32   IEEE CRC-32 of each block
//	  indexCRC  uint32               IEEE CRC-32 of the index sections
//
// Every width and offset follows from the header and the shape flag:
// records = ⌈cells/512⌉; dw = bytes(nonzero), lw is the low width in 1…8
// that makes dir and lows smallest (the narrower on a tie), buckets =
// ⌈cells/2^(8·lw)⌉; block b is the blockSize×8 bytes (fewer for the last
// block) at blocks + b×blockSize×8. The sections of the other shape are
// empty. dir and lows are packed words, each section followed by 8−w pad
// bytes so the reader's one 8-byte load of its last entry stays inside it.
//
// In the directory shape a key splits into its bucket, key >> 8·lw, kept as
// counts in dir, and its low lw bytes, kept verbatim in lows, as
// Elias–Fano splits a sorted set. "Space-Efficient Data-Analysis Queries on
// Grids" grounds both indexes: rank over a bitmap, and that split at about
// 2+log₂(cells/n) bits per key, what the information costs when the set is
// sparse. A lookup reads dir[b] and dir[b+1], the slot range of key's
// bucket, and searches those lows; no entry has a variable length. Values
// are raw float64 words in blocks.
//
// Verification is the same in both shapes: every byte past the prelude is
// served only behind a CRC-32. The header blob has its own, checked at open.
// A block is checked the first time any of its slots is served and marked
// verified in a bitmap; later reads are windows of the file's bytes with no
// check. The index sections share indexCRC, checked the first time a read
// needs them, and with it, once, what a checksum cannot vouch for: in the
// rank shape that each record's count is the bits set in the records
// before it, the last one's too summing to nonzero, that each sub-count is
// the bits set in the record's words before its word, and that no bit is
// set at or past cells; in the directory shape that dir rises from 0 to
// nonzero and that the stored keys ascend inside the domain. So "key
// absent" is checked, not assumed. A check that fails is never remembered,
// so every retry checks again and fails again. Corruption becomes per-key
// retrieval errors the engine degrades over.
//
// The format has changed five times without a new version number. indexCRC
// was added to sparse files; their hot region, raw values outside the
// blocks counted by the first reserved word, went; their values moved from
// |value|-descending slots, behind two packed permutations and a list of
// the penalty families the order followed, counted by the second reserved
// word, into key order; their key index, every 64th key with uvarint deltas
// between, whose stream length the third reserved word held, became the
// bucket directory and the lows; and the dense shape, every cell's value
// with no index, which flag bit 1 marked, gave way to the rank shape under
// flag bit 2. Every sparse file written before the fourth change that
// stores a key has a nonzero word among the three reserved ones, so a
// reader refuses any file whose reserved words are not all 0
// (ErrReservedWords); that covers the older changes too, and an empty one
// fails the size check. A dense file, which always had 0 in all three, is
// refused by its flag. Each refusal names the rebuild from the source data;
// a directory file of the writer before the last change reads as it did.
package layout

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"slices"
)

// Magic opens every .wvls file: a reader handed a view file of either
// format tells them apart by it.
const Magic = "WVLS"

const (
	version = 2

	// flagQuantized marked files whose block values were float32, a lossy
	// mode this format no longer writes; Open refuses such a file.
	flagQuantized = 1 << 0

	// flagDense marked the dense shape, every cell's value in key order
	// with no index, which this format no longer writes; Open refuses such
	// a file.
	flagDense = 1 << 1

	// flagRank marks the rank shape: a rank record per 512 cells, no
	// directory.
	flagRank = 1 << 2

	// rankRecord is the size of one rank record, which covers 512 cells:
	// the count of stored keys below it, the word of sub-counts, then the
	// eight 64-bit words of its cells. Sub-count j−1, bits 9(j−1) to
	// 9j−1, counts the keys stored in words 0…j−1, for j in 1…7; bit 63 is
	// clear.
	rankRecord = 80

	// preludeSize is the fixed region before the header blob.
	preludeSize = 4 + 2 + 2 + 4 + 4

	// DefaultBlockSize is the block granularity: coefficients checksummed
	// together.
	DefaultBlockSize = 4096

	// maxBlockSize bounds what one block load reads and checksums (512 KiB).
	maxBlockSize = 1 << 16

	// maxDims is the plausibility bound on a header's schema dimensionality.
	maxDims = 64
)

// Meta is the optional database identity carried by a layout file so
// repro.OpenLayout can reassemble a servable view from the file alone. A
// file written with WriteOptions.Meta nil has none.
type Meta struct {
	FilterName string
	TupleCount int64
	Names      []string
	Sizes      []int
	Windows    [][2]float64 // nil or one per dimension
}

// rebuild is the remedy every refusal of a file this reader no longer reads
// names: the format is derived data, and these commands write it from the
// source data without opening a .wvls.
const rebuild = "the format is derived data — rebuild it from the source data with wvload or wvq -create"

// ErrReservedWords is the refusal of a file whose header's reserved words
// are not 0: a sparse file written before its key index was a bucket
// directory (see the package comment).
var ErrReservedWords = errors.New("layout: .wvls file with nonzero reserved header words, a sparse file written before its key index was a bucket directory, which is no longer read")

// WriteOptions configures Encode.
type WriteOptions struct {
	// Cells is the domain size; every key must be in [0,Cells).
	Cells int
	// BlockSize is the block granularity in slots; 0 selects
	// DefaultBlockSize.
	BlockSize int
	// Meta optionally embeds the database identity (see Meta).
	Meta *Meta
}

// wordWidth is the byte width of a packed section whose largest entry is max.
func wordWidth(max uint64) int {
	if max == 0 {
		return 1
	}
	return (bits.Len64(max) + 7) / 8
}

// packedSize is the section length of n packed words of width w: the words
// plus the pad that keeps packed.at's 8-byte load of the last one in bounds.
func packedSize(n, w int) int64 { return int64(n)*int64(w) + int64(8-w) }

// appendPacked appends the low w bytes of v.
func appendPacked(b []byte, v uint64, w int) []byte {
	return binary.LittleEndian.AppendUint64(b, v)[:len(b)+w]
}

// keyIndex is the shape of a directory file's key index when each stored
// key keeps its low lw bytes: the bucket count and the sizes of dir,
// buckets+1 counts bytes(nonzero) wide, and lows, nonzero words lw wide.
func keyIndex(cells, nonzero, lw int) (buckets int, dirSize, lowsSize int64) {
	buckets = int(uint64(cells-1)>>(8*lw)) + 1
	return buckets, packedSize(buckets+1, wordWidth(uint64(nonzero))), packedSize(nonzero, lw)
}

// lowWidth is the low width of a directory file's keys: the one in 1…8
// whose key index is smallest, the narrower on a tie.
func lowWidth(cells, nonzero int) int {
	best, bestSize := 0, int64(math.MaxInt64)
	for lw := 1; lw <= 8; lw++ {
		if _, dir, lows := keyIndex(cells, nonzero, lw); dir+lows < bestSize {
			best, bestSize = lw, dir+lows
		}
	}
	return best
}

// rankRecords is the record count of a rank section over cells: one per
// 512.
func rankRecords(cells int) int { return int(uint64(cells-1)>>9) + 1 }

// useRank is the shape rule: Encode writes the rank shape iff its rank
// section is smaller than the key index of the directory shape would be.
// It is a count of cells and nonzero keys, nothing else; the crossover
// lies near 15 % full.
func useRank(cells, nonzero int) bool {
	_, dir, lows := keyIndex(cells, nonzero, lowWidth(cells, nonzero))
	return int64(rankRecords(cells))*rankRecord < dir+lows
}

// rankSlot is a rank section's lookup: key's slot is its record's count
// plus its word's sub-count plus the bits set below key's in its word, and
// stored is key's bit, 1 iff it is stored. An absent key gets the slot its
// value would take. Word 0 has no sub-count: its shift, 9·(0−1) wrapped,
// is past 63, which shifts every bit out.
func rankSlot(rank []byte, key uint) (slot uint, stored uint64) {
	rec := rank[rankRecord*(key>>9):][:rankRecord]
	j := key >> 6 & 7
	word := binary.LittleEndian.Uint64(rec[16+8*j:])
	sub := binary.LittleEndian.Uint64(rec[8:]) >> (9 * (j - 1)) & 0x1ff
	return uint(binary.LittleEndian.Uint64(rec)) + uint(sub) + uint(bits.OnesCount64(word&(1<<(key&63)-1))), word >> (key & 63) & 1
}

// subCounts is the word of sub-counts of a record's eight words, and the
// keys stored in all eight.
func subCounts(words *[8]uint64) (subs uint64, total int) {
	for j, w := range words {
		if j > 0 {
			subs |= uint64(total) << (9 * (j - 1))
		}
		total += bits.OnesCount64(w)
	}
	return subs, total
}

// packed reads a fixed-width unsigned section of the file, a window of its
// bytes.
type packed struct {
	b    []byte
	w    int
	mask uint64
}

func newPacked(b []byte, w int) packed {
	return packed{b: b, w: w, mask: ^uint64(0) >> (64 - 8*w)}
}

func (p packed) at(i int) uint64 {
	return binary.LittleEndian.Uint64(p.b[i*p.w:]) & p.mask
}

// geometry is the decoded header plus everything that follows from it.
type geometry struct {
	flags     uint16
	cells     int
	nonzero   int
	blockSize int
	mass      float64

	numBlocks int
	records   int // a rank file's only: its rank records
	lowWidth  int // a directory file's only: the key index's shape
	buckets   int

	rankOff   int64
	dirOff    int64
	lowsOff   int64
	blocksOff int64
	crcsOff   int64
	fileSize  int64
}

func (g *geometry) rank() bool { return g.flags&flagRank != 0 }

// shape names the shape, as Stats and the tools print it.
func (g *geometry) shape() string {
	if g.rank() {
		return "rank"
	}
	return "directory"
}

// dirWidth is the byte width of a directory file's dir entries.
func (g *geometry) dirWidth() int { return wordWidth(uint64(g.nonzero)) }

// derive fills the counts, widths and section offsets in from the header
// fields; dataStart is where the first section begins.
func (g *geometry) derive(dataStart int64) {
	var rankSize, dirSize, lowsSize int64
	if g.rank() {
		g.records = rankRecords(g.cells)
		rankSize = int64(g.records) * rankRecord
	} else {
		g.lowWidth = lowWidth(g.cells, g.nonzero)
		g.buckets, dirSize, lowsSize = keyIndex(g.cells, g.nonzero, g.lowWidth)
	}
	g.numBlocks = (g.nonzero + g.blockSize - 1) / g.blockSize
	off := dataStart
	section := func(size int64) int64 {
		at := off
		off += size
		return at
	}
	g.rankOff = section(rankSize)
	g.dirOff = section(dirSize)
	g.lowsOff = section(lowsSize)
	g.blocksOff = section(int64(g.nonzero) * 8)
	g.crcsOff = section(int64(g.numBlocks+1) * 4) // and indexCRC
	g.fileSize = off
}

// checkBlock checks block b's value words against its stored checksum.
func (g *geometry) checkBlock(crcs []byte, b int, vals []byte) error {
	if got, want := crc32.ChecksumIEEE(vals), binary.LittleEndian.Uint32(crcs[4*b:]); got != want {
		return fmt.Errorf("layout: block %d checksum mismatch (file %08x, computed %08x)", b, want, got)
	}
	return nil
}

// blockSlots returns the slot range [lo,hi) of block b.
func (g *geometry) blockSlots(b int) (lo, hi int) {
	lo = b * g.blockSize
	return lo, min(lo+g.blockSize, g.nonzero)
}

// coef is one stored coefficient.
type coef struct {
	k int
	v float64
}

// input is a validated Encode input and the geometry of the file it makes.
type input struct {
	pairs []coef // the nonzero coefficients, ascending key
	g     geometry
}

// prepare validates Encode's input and derives the geometry of the shape
// useRank picks for its counts.
func prepare(keys []int, values []float64, opts WriteOptions) (*input, error) {
	if len(keys) != len(values) {
		return nil, fmt.Errorf("layout: %d keys for %d values", len(keys), len(values))
	}
	if opts.Cells <= 0 {
		return nil, fmt.Errorf("layout: domain size %d must be positive", opts.Cells)
	}
	if opts.Meta != nil {
		if err := validateMeta(opts.Meta); err != nil {
			return nil, err
		}
	}
	if opts.BlockSize <= 0 {
		opts.BlockSize = DefaultBlockSize
	}
	if opts.BlockSize > maxBlockSize {
		return nil, fmt.Errorf("layout: block size %d exceeds %d", opts.BlockSize, maxBlockSize)
	}

	// Drop zeros, validate range, check duplicates.
	pairs := make([]coef, 0, len(keys))
	for i, k := range keys {
		if k < 0 || k >= opts.Cells {
			return nil, fmt.Errorf("layout: key %d out of range [0,%d)", k, opts.Cells)
		}
		if values[i] != 0 {
			pairs = append(pairs, coef{k: k, v: values[i]})
		}
	}
	slices.SortFunc(pairs, func(a, b coef) int { return cmp.Compare(a.k, b.k) })
	var mass float64
	for i := range pairs {
		if i > 0 && pairs[i].k == pairs[i-1].k {
			return nil, fmt.Errorf("layout: duplicate key %d", pairs[i].k)
		}
		mass += math.Abs(pairs[i].v)
	}

	in := &input{pairs: pairs, g: geometry{cells: opts.Cells, nonzero: len(pairs),
		blockSize: opts.BlockSize, mass: mass}}
	if useRank(opts.Cells, len(pairs)) {
		in.g.flags = flagRank
	}
	in.g.derive(int64(preludeSize + len(encodeHeaderBlob(&in.g, opts.Meta))))
	return in, nil
}

// Encode writes the complete .wvls file for the nonzero coefficients
// (keys[i], values[i]) to w: their values in ascending key order behind the
// rank section or the key directory, whichever useRank picks. Zero values
// are dropped; duplicate keys are an error. Equal inputs give byte-identical
// files. A writer of a path hands Encode to WriteFile.
func Encode(w io.Writer, keys []int, values []float64, opts WriteOptions) error {
	in, err := prepare(keys, values, opts)
	if err != nil {
		return err
	}
	g, pairs := &in.g, in.pairs
	return encodeFile(w, g, encodeHeaderBlob(g, opts.Meta), func(bw *bufio.Writer, buf []byte) error {
		// The index sections go through indexCRC on their way out.
		sum := crc32.NewIEEE()
		index := io.MultiWriter(bw, sum)
		var err error
		if g.rank() {
			err = in.writeRank(index, buf)
		} else {
			err = in.writeDirectory(index, buf)
		}
		if err != nil {
			return err
		}
		return writeBlocks(bw, g, buf, func(slot int) float64 { return pairs[slot].v }, sum.Sum32())
	})
}

// writeRank writes the rank section: per 512 cells the count of stored
// keys below them, the sub-counts and the words of the stored ones among
// them, one cursor over the ascending keys.
func (in *input) writeRank(w io.Writer, buf []byte) error {
	pairs, next := in.pairs, 0
	for r := 0; r < in.g.records; {
		buf = buf[:0]
		for ; r < in.g.records && len(buf) < 64<<10; r++ {
			below, words := next, [8]uint64{}
			for ; next < len(pairs) && pairs[next].k>>9 == r; next++ {
				words[pairs[next].k>>6&7] |= 1 << (pairs[next].k & 63)
			}
			subs, _ := subCounts(&words)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(below))
			buf = binary.LittleEndian.AppendUint64(buf, subs)
			for _, word := range words {
				buf = binary.LittleEndian.AppendUint64(buf, word)
			}
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// writeDirectory writes the key directory and the keys' low bytes: the
// stored keys below each bucket, one cursor over the ascending keys, then
// each key's low lw bytes.
func (in *input) writeDirectory(w io.Writer, buf []byte) error {
	g, pairs := &in.g, in.pairs
	shift := 8 * g.lowWidth
	writePacked := func(count, width int, at func(i int) uint64) error {
		size := packedSize(count, width)
		buf = slices.Grow(buf[:0], int(size))
		for i := 0; i < count; i++ {
			buf = appendPacked(buf, at(i), width)
		}
		clear(buf[len(buf):size]) // the pad
		_, err := w.Write(buf[:size])
		return err
	}
	below := 0
	if err := writePacked(g.buckets+1, g.dirWidth(), func(b int) uint64 {
		for below < len(pairs) && pairs[below].k>>shift < b {
			below++
		}
		return uint64(below)
	}); err != nil {
		return err
	}
	return writePacked(len(pairs), g.lowWidth, func(i int) uint64 { return uint64(pairs[i].k) })
}

// encodeFile writes the prelude, the header blob and then body to dst,
// through one buffered writer; body gets buf as scratch space.
func encodeFile(dst io.Writer, g *geometry, hdr []byte, body func(w *bufio.Writer, buf []byte) error) error {
	w := bufio.NewWriterSize(dst, 1<<20)
	buf := make([]byte, 0, preludeSize+len(hdr))
	buf = append(buf, Magic...)
	buf = binary.LittleEndian.AppendUint16(buf, version)
	buf = binary.LittleEndian.AppendUint16(buf, g.flags)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(hdr)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(hdr))
	if _, err := w.Write(append(buf, hdr...)); err != nil {
		return err
	}
	if err := body(w, buf); err != nil {
		return err
	}
	return w.Flush()
}

// appendValues appends the values of slots [lo,hi) as float64 words.
func appendValues(buf []byte, lo, hi int, value func(slot int) float64) []byte {
	buf = slices.Grow(buf, (hi-lo)*8)
	for slot := lo; slot < hi; slot++ {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(value(slot)))
	}
	return buf
}

// writeBlocks writes the blocks in slot order, one at a time, then their
// checksums and the trailing ones given: block extents are arithmetic, so
// nothing but the checksums waits for the end of the file.
func writeBlocks(w *bufio.Writer, g *geometry, buf []byte, value func(slot int) float64, trailing ...uint32) error {
	crcs := make([]byte, 0, (g.numBlocks+len(trailing))*4)
	for b := 0; b < g.numBlocks; b++ {
		lo, hi := g.blockSlots(b)
		buf = appendValues(buf[:0], lo, hi, value)
		if _, err := w.Write(buf); err != nil {
			return err
		}
		crcs = binary.LittleEndian.AppendUint32(crcs, crc32.ChecksumIEEE(buf))
	}
	for _, sum := range trailing {
		crcs = binary.LittleEndian.AppendUint32(crcs, sum)
	}
	_, err := w.Write(crcs)
	return err
}

func validateMeta(m *Meta) error {
	if len(m.FilterName) == 0 || len(m.FilterName) > 255 {
		return fmt.Errorf("layout: filter name length %d out of range", len(m.FilterName))
	}
	if len(m.Names) == 0 || len(m.Names) != len(m.Sizes) {
		return fmt.Errorf("layout: %d names for %d sizes", len(m.Names), len(m.Sizes))
	}
	if len(m.Names) > maxDims {
		return fmt.Errorf("layout: implausible dimension count %d", len(m.Names))
	}
	if m.Windows != nil && len(m.Windows) != len(m.Names) {
		return fmt.Errorf("layout: %d windows for %d dimensions", len(m.Windows), len(m.Names))
	}
	for i, name := range m.Names {
		if len(name) > math.MaxUint16 || m.Sizes[i] <= 0 || int64(m.Sizes[i]) > math.MaxUint32 {
			return fmt.Errorf("layout: dimension %d (name of %d bytes, size %d) does not fit the header", i, len(name), m.Sizes[i])
		}
	}
	return nil
}

// encodeHeaderBlob serializes the geometry's stored fields, the optional
// meta and the reserved words.
func encodeHeaderBlob(g *geometry, meta *Meta) []byte {
	var b []byte
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	u32 := func(v uint32) { b = binary.LittleEndian.AppendUint32(b, v) }
	u16 := func(v uint16) { b = binary.LittleEndian.AppendUint16(b, v) }
	str8 := func(s string) { b = append(b, byte(len(s))); b = append(b, s...) }
	str16 := func(s string) { u16(uint16(len(s))); b = append(b, s...) }

	u64(uint64(g.cells))
	u64(uint64(g.nonzero))
	u64(0) // reserved: a sparse file's hot region once
	u32(uint32(g.blockSize))
	u64(math.Float64bits(g.mass))
	if meta == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		str8(meta.FilterName)
		u64(uint64(meta.TupleCount))
		u16(uint16(len(meta.Names)))
		for i, name := range meta.Names {
			str16(name)
			u32(uint32(meta.Sizes[i]))
			var win [2]float64
			if meta.Windows != nil {
				win = meta.Windows[i]
			}
			u64(math.Float64bits(win[0]))
			u64(math.Float64bits(win[1]))
		}
	}
	u16(0) // reserved: a sparse file's family count once
	u64(0) // reserved: a sparse file's key stream length once
	return b
}

// blobReader decodes the header blob with bounds checking; every read that
// would run past the blob yields an error instead of a panic, so corrupted
// headers are rejected (see FuzzOpenLayout).
type blobReader struct {
	b   []byte
	pos int
	err error
}

func (r *blobReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.pos+n > len(r.b) {
		r.err = fmt.Errorf("layout: header truncated")
		return nil
	}
	s := r.b[r.pos : r.pos+n]
	r.pos += n
	return s
}

func (r *blobReader) u64() uint64 {
	if s := r.take(8); s != nil {
		return binary.LittleEndian.Uint64(s)
	}
	return 0
}

func (r *blobReader) u32() uint32 {
	if s := r.take(4); s != nil {
		return binary.LittleEndian.Uint32(s)
	}
	return 0
}

func (r *blobReader) u16() uint16 {
	if s := r.take(2); s != nil {
		return binary.LittleEndian.Uint16(s)
	}
	return 0
}

func (r *blobReader) u8() uint8 {
	if s := r.take(1); s != nil {
		return s[0]
	}
	return 0
}

func (r *blobReader) str8() string  { return string(r.take(int(r.u8()))) }
func (r *blobReader) str16() string { return string(r.take(int(r.u16()))) }

// readHeader checks the prelude and the header blob at the front of file,
// the whole file's bytes, and validates both against its length.
func readHeader(file []byte) (*geometry, *Meta, error) {
	if len(file) < preludeSize {
		return nil, nil, fmt.Errorf("layout: reading prelude: %w", io.ErrUnexpectedEOF)
	}
	prelude, size := file[:preludeSize], int64(len(file))
	if string(prelude[0:4]) != Magic {
		return nil, nil, fmt.Errorf("layout: bad magic %q (not a .wvls file)", prelude[0:4])
	}
	switch v := binary.LittleEndian.Uint16(prelude[4:6]); v {
	case version:
	case 1:
		return nil, nil, fmt.Errorf("layout: version 1 .wvls file, which is no longer read; %s", rebuild)
	default:
		return nil, nil, fmt.Errorf("layout: unsupported version %d", v)
	}
	flags := binary.LittleEndian.Uint16(prelude[6:8])
	if flags&flagQuantized != 0 {
		return nil, nil, fmt.Errorf("layout: .wvls file with float32 block values, which are no longer read; %s", rebuild)
	}
	if flags&flagDense != 0 {
		return nil, nil, fmt.Errorf("layout: .wvls file in the dense shape, every cell stored, which is no longer read; %s", rebuild)
	}
	if flags&^flagRank != 0 {
		return nil, nil, fmt.Errorf("layout: unknown flags %#x", flags)
	}
	hdrLen := binary.LittleEndian.Uint32(prelude[8:12])
	hdrCRC := binary.LittleEndian.Uint32(prelude[12:16])
	if int64(hdrLen) > size-preludeSize || hdrLen > 1<<24 {
		return nil, nil, fmt.Errorf("layout: header length %d implausible", hdrLen)
	}
	blob := file[preludeSize : preludeSize+int64(hdrLen)]
	if got := crc32.ChecksumIEEE(blob); got != hdrCRC {
		return nil, nil, fmt.Errorf("layout: header checksum mismatch (file %08x, computed %08x)", hdrCRC, got)
	}
	return decodeHeaderBlob(blob, flags, size)
}

// decodeHeaderBlob parses and validates the header blob. The section table
// is derived, not stored, so the one structural check is that the counts
// account for the actual file size to the byte; after it the read path can
// trust every offset unconditionally. A flipped rank flag fails the rank
// section's plausibility check below or that size check, in either
// direction, or, where the two shapes' index sections happen to be the same
// size, the index check of the first read.
func decodeHeaderBlob(blob []byte, flags uint16, fileSize int64) (*geometry, *Meta, error) {
	r := &blobReader{b: blob}
	g := &geometry{flags: flags}
	g.cells = int(r.u64())
	g.nonzero = int(r.u64())
	hot := r.u64()
	g.blockSize = int(r.u32())
	g.mass = math.Float64frombits(r.u64())

	var meta *Meta
	if r.u8() == 1 {
		meta = &Meta{}
		meta.FilterName = r.str8()
		meta.TupleCount = int64(r.u64())
		dims := int(r.u16())
		if dims == 0 || dims > maxDims {
			return nil, nil, fmt.Errorf("layout: implausible dimension count %d", dims)
		}
		meta.Names = make([]string, dims)
		meta.Sizes = make([]int, dims)
		windows := make([][2]float64, dims)
		anyWindow := false
		for i := 0; i < dims; i++ {
			meta.Names[i] = r.str16()
			meta.Sizes[i] = int(r.u32())
			windows[i] = [2]float64{
				math.Float64frombits(r.u64()),
				math.Float64frombits(r.u64()),
			}
			if windows[i] != ([2]float64{}) {
				anyWindow = true
			}
		}
		if anyWindow {
			meta.Windows = windows
		}
	}
	// The reserved words are checked before the blob's length: a file of an
	// older sparse layout has family records after the second.
	families, stream := r.u16(), r.u64()
	if hot != 0 || families != 0 || stream != 0 {
		return nil, nil, fmt.Errorf("%w (hot region %d, families %d, key stream %d); %s", ErrReservedWords, hot, families, stream, rebuild)
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	if r.pos != len(blob) {
		return nil, nil, fmt.Errorf("layout: %d trailing header bytes", len(blob)-r.pos)
	}

	// Geometry plausibility: non-negative counts that fit the domain, no
	// more values than the file has room for at eight bytes each, and in
	// the rank shape no more rank records than it has room for at eighty.
	// Past that the offset arithmetic in derive cannot overflow: a key
	// directory is no larger than eight bytes a key plus a few words.
	if g.cells <= 0 || g.nonzero < 0 || g.nonzero > g.cells {
		return nil, nil, fmt.Errorf("layout: implausible geometry (cells %d, nonzero %d)", g.cells, g.nonzero)
	}
	if g.blockSize <= 0 || g.blockSize > maxBlockSize {
		return nil, nil, fmt.Errorf("layout: implausible block size %d", g.blockSize)
	}
	if int64(g.nonzero) > fileSize/8 {
		return nil, nil, fmt.Errorf("layout: implausible geometry (%d values in %d bytes)", g.nonzero, fileSize)
	}
	if records := rankRecords(g.cells); g.rank() && int64(records) > fileSize/rankRecord {
		return nil, nil, fmt.Errorf("layout: implausible geometry (%d rank records for %d cells in %d bytes)", records, g.cells, fileSize)
	}
	g.derive(int64(preludeSize + len(blob)))
	if g.fileSize != fileSize {
		return nil, nil, fmt.Errorf("layout: file size %d does not match header (want %d)", fileSize, g.fileSize)
	}
	return g, meta, nil
}
