// Package layout implements persistent storage: the .wvls on-disk format,
// the one file a database is saved to. A file has one of two shapes, chosen
// by Encode from the data alone. It is written once (Encode; every writer
// of a path goes through WriteFile, which never truncates a file a reader
// may have mapped) and read by one reader, Store: in place through Open,
// which maps it, or from a copy through Load, which reads it once.
//
// Both shapes store values in ascending key order and give them no other
// physical order: the engine asks for coefficients by query importance,
// which no write-time order follows, and each retrieval is one random read.
//
// The sparse shape holds the nonzero coefficients only, behind an index of
// their keys: the rank a key search returns is the slot its value sits at.
// The dense shape is an array: every cell's value, zeros included, so the
// slot is the key and there is no index at all. Encode writes the dense shape
// iff at least half the cells are nonzero. The rule is a count, not a byte
// comparison: the sparse file is the smaller one up to about 88 % full, but
// its lookup searches the key index where the dense one is a load, so
// between one half and that the rule spends bytes on lookup speed.
//
// File shape, version 2 (all integers little-endian):
//
//	magic    "WVLS"                  4 bytes
//	version  uint16                  2
//	flags    uint16                  bit 0: refused (float32 block values)
//	                                 bit 1: dense shape
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
//	  dir       (buckets+1) × dw     stored keys below each bucket, cumulative
//	  lows      nonzero × lw         each stored key's low lw bytes, ascending key
//	  blocks    slots × float64      the values, in ascending key order
//	  crcs      numBlocks × uint32   IEEE CRC-32 of each block
//	  indexCRC  uint32               sparse only: IEEE CRC-32 of dir and lows
//
// Every width and offset follows from the header: dw = bytes(nonzero), lw is
// the low width in 1…8 that makes dir and lows smallest (the narrower on a
// tie), buckets = ⌈cells/2^(8·lw)⌉, and block b is the blockSize×8 bytes
// (fewer for the last block) at blocks + b×blockSize×8. The two index
// sections are packed words, each followed by 8−w pad bytes so the reader's
// one 8-byte load of the last entry stays inside its section. A dense file's
// index sections are empty (pads too) and its blocks hold cells slots.
//
// In the sparse shape slot i holds the i-th smallest stored key's value. A
// key splits into its bucket, key >> 8·lw, kept as counts in dir, and its low
// lw bytes, kept verbatim in lows, as Elias–Fano splits a sorted set:
// "Space-Efficient Data-Analysis Queries on Grids" grounds it, about
// 2+log₂(cells/n) bits per key being what the information costs. A lookup
// reads dir[b] and dir[b+1], the slot range of key's bucket, and searches
// those lows; no entry has a variable length. Values are raw float64 words
// in blocks.
//
// Verification is the same in both shapes: every byte past the prelude is
// served only behind a CRC-32. The header blob has its own, checked at open.
// A block is checked the first time any of its slots is served and marked
// verified in a bitmap; later reads are windows of the file's bytes with no
// check. A sparse file's index sections share indexCRC, checked the first
// time a read needs them, and with it, once, that dir rises from 0 to
// nonzero and that the stored keys ascend inside the domain, so "key absent"
// is checked, not assumed. A check that fails is never remembered, so every
// retry checks again and fails again. Corruption becomes per-key retrieval
// errors the engine degrades over.
//
// The format has changed four times without a new version number, because
// dense files did not change. indexCRC was added to sparse files; their hot
// region, raw values outside the blocks counted by the first reserved word,
// went; their values moved from |value|-descending slots, behind two packed
// permutations and a list of the penalty families the order followed,
// counted by the second reserved word, into key order; and their key index,
// every 64th key with uvarint deltas between, whose stream length the third
// reserved word held, became the bucket directory and the lows. Every sparse
// file written before the last change that stores a key has a nonzero word
// among the three, so a reader refuses any file whose reserved words are not
// all 0 (ErrReservedWords); that covers the older changes too, and an empty
// one fails the size check. A dense file always had 0 in all three.
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

	// flagDense marks the dense shape: every cell's value in key order, no
	// index sections.
	flagDense = 1 << 1

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

// keyIndex is the shape of a sparse file's key index when each stored key
// keeps its low lw bytes: the bucket count and the sizes of dir, buckets+1
// counts bytes(nonzero) wide, and lows, nonzero words lw wide.
func keyIndex(cells, nonzero, lw int) (buckets int, dirSize, lowsSize int64) {
	buckets = int(uint64(cells-1)>>(8*lw)) + 1
	return buckets, packedSize(buckets+1, wordWidth(uint64(nonzero))), packedSize(nonzero, lw)
}

// lowWidth is the low width of a sparse file's keys: the one in 1…8 whose
// key index is smallest, the narrower on a tie.
func lowWidth(cells, nonzero int) int {
	best, bestSize := 0, int64(math.MaxInt64)
	for lw := 1; lw <= 8; lw++ {
		if _, dir, lows := keyIndex(cells, nonzero, lw); dir+lows < bestSize {
			best, bestSize = lw, dir+lows
		}
	}
	return best
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

	slots     int // value slots: nonzero, or cells in the dense shape
	numBlocks int
	lowWidth  int // a sparse file's only: the key index's shape
	buckets   int

	dirOff    int64
	lowsOff   int64
	blocksOff int64
	crcsOff   int64
	fileSize  int64
}

func (g *geometry) dense() bool { return g.flags&flagDense != 0 }

// dirWidth is the byte width of a sparse file's dir entries.
func (g *geometry) dirWidth() int { return wordWidth(uint64(g.nonzero)) }

// derive fills the counts, widths and section offsets in from the header
// fields; dataStart is where the first section begins.
func (g *geometry) derive(dataStart int64) {
	var dirSize, lowsSize int64
	indexCRCs := 0 // indexCRC, in a sparse file
	g.slots = g.cells
	if !g.dense() {
		g.slots, g.lowWidth, indexCRCs = g.nonzero, lowWidth(g.cells, g.nonzero), 1
		g.buckets, dirSize, lowsSize = keyIndex(g.cells, g.nonzero, g.lowWidth)
	}
	g.numBlocks = (g.slots + g.blockSize - 1) / g.blockSize
	off := dataStart
	section := func(size int64) int64 {
		at := off
		off += size
		return at
	}
	g.dirOff = section(dirSize)
	g.lowsOff = section(lowsSize)
	g.blocksOff = section(int64(g.slots) * 8)
	g.crcsOff = section(int64(g.numBlocks+indexCRCs) * 4)
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
	return lo, min(lo+g.blockSize, g.slots)
}

// coef is one stored coefficient.
type coef struct {
	k int
	v float64
}

// input is a validated Encode input and the geometry of the file it makes.
type input struct {
	opts  WriteOptions
	pairs []coef // the nonzero coefficients, ascending key
	g     geometry
}

// prepare validates Encode's input and derives the geometry of the shape it
// writes: dense iff at least half the cells are nonzero. It does none of
// the work only the sparse file needs: the key index itself.
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

	in := &input{opts: opts, pairs: pairs, g: geometry{cells: opts.Cells, nonzero: len(pairs),
		blockSize: opts.BlockSize, mass: mass}}
	if 2*len(pairs) >= opts.Cells {
		in.g.flags = flagDense
	}
	in.g.derive(int64(preludeSize + len(encodeHeaderBlob(&in.g, opts.Meta))))
	return in, nil
}

// Encode writes the complete .wvls file for the nonzero coefficients
// (keys[i], values[i]) to w: dense iff at least half the cells are
// nonzero, sparse otherwise. Zero values are dropped; duplicate keys are an
// error. Either shape stores the values in ascending key order. Equal
// inputs give byte-identical files. A writer of a path hands Encode to
// WriteFile.
func Encode(w io.Writer, keys []int, values []float64, opts WriteOptions) error {
	in, err := prepare(keys, values, opts)
	if err != nil {
		return err
	}
	if in.g.dense() {
		return in.writeDense(w)
	}
	return in.writeSparse(w)
}

// writeDense writes every cell's value in key order, zeros included: the
// slot is the key. writeBlocks asks for the cells in ascending order, so
// one cursor over the ascending pairs finds each stored value.
func (in *input) writeDense(dst io.Writer) error {
	g, pairs, next := &in.g, in.pairs, 0
	return encodeFile(dst, g, encodeHeaderBlob(g, in.opts.Meta), func(w *bufio.Writer, buf []byte) error {
		return writeBlocks(w, g, buf, func(key int) float64 {
			if next < len(pairs) && pairs[next].k == key {
				next++
				return pairs[next-1].v
			}
			return 0
		})
	})
}

// writeSparse writes the nonzero coefficients' values in ascending key
// order behind the key index: the key's rank is its slot.
func (in *input) writeSparse(dst io.Writer) error {
	g, pairs := &in.g, in.pairs
	shift := 8 * g.lowWidth
	return encodeFile(dst, g, encodeHeaderBlob(g, in.opts.Meta), func(bw *bufio.Writer, buf []byte) error {
		// dir and lows go through indexCRC on their way out.
		sum := crc32.NewIEEE()
		w := io.MultiWriter(bw, sum)
		writePacked := func(count, width int, at func(i int) uint64) error {
			buf = slices.Grow(buf[:0], int(packedSize(count, width)))
			for i := 0; i < count; i++ {
				buf = appendPacked(buf, at(i), width)
			}
			size := packedSize(count, width)
			clear(buf[len(buf):size]) // the pad
			_, err := w.Write(buf[:size])
			return err
		}
		below := 0 // stored keys below bucket b, one cursor over the ascending keys
		if err := writePacked(g.buckets+1, g.dirWidth(), func(b int) uint64 {
			for below < len(pairs) && pairs[below].k>>shift < b {
				below++
			}
			return uint64(below)
		}); err != nil {
			return err
		}
		if err := writePacked(len(pairs), g.lowWidth, func(i int) uint64 { return uint64(pairs[i].k) }); err != nil {
			return err
		}
		return writeBlocks(bw, g, buf, func(slot int) float64 { return pairs[slot].v }, sum.Sum32())
	})
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
	if flags&^flagDense != 0 {
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
// trust every offset unconditionally. A flipped dense flag fails the shape's
// own plausibility check below or that size check, in either direction.
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

	// Geometry plausibility: non-negative counts that fit the domain, and
	// no more value slots — the nonzero coefficients, every cell in the
	// dense shape — than the file has room for at eight bytes each. Past
	// that the offset arithmetic in derive cannot overflow: the key index it
	// picks is no larger than eight bytes a key plus a few words.
	if g.cells <= 0 || g.nonzero < 0 || g.nonzero > g.cells {
		return nil, nil, fmt.Errorf("layout: implausible geometry (cells %d, nonzero %d)", g.cells, g.nonzero)
	}
	if g.blockSize <= 0 || g.blockSize > maxBlockSize {
		return nil, nil, fmt.Errorf("layout: implausible block size %d", g.blockSize)
	}
	slots := g.nonzero
	if g.dense() {
		slots = g.cells
	}
	if int64(slots) > fileSize/8 {
		return nil, nil, fmt.Errorf("layout: implausible geometry (%d value slots in %d bytes)", slots, fileSize)
	}
	g.derive(int64(preludeSize + len(blob)))
	if g.fileSize != fileSize {
		return nil, nil, fmt.Errorf("layout: file size %d does not match header (want %d)", fileSize, g.fileSize)
	}
	return g, meta, nil
}
