// Package layout implements schedule-aware persistent storage: the .wvls
// on-disk format, the one file a database is saved to. A file has one of two
// shapes, chosen by Encode from the data alone. It is written once (Encode;
// Write and every other writer of a path go through WriteFile, which never
// truncates a file a reader may have mapped) and read by one reader, Store:
// in place through Open, which maps it, or into memory through Decode, which
// runs the store's walk to hand over its coefficients in key order.
//
// The sparse shape lays coefficients out physically ordered by a canonical
// retrieval schedule, so a cold progressive drain — which asks for
// coefficients in exactly that order — is sequential I/O instead of the
// random positioned reads a key-ordered file serves it with. A prefix read
// of the file warms exactly the coefficients Theorem 1 says matter most,
// under any penalty whose schedule correlates with the layout family.
//
// The dense shape is an array: every cell's value in key order, zeros
// included, so the slot is the key and there is no index at all. Write
// derives both files' sizes and writes the dense one iff it is strictly
// smaller and no Families were supplied (families ask for a physical
// schedule order, which only the sparse shape has). At 8-byte values the
// crossover is near 53 % of the cells nonzero.
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
//	  cells, nonzero, hot uint64     hot is always 0 (see below)
//	  blockSize uint32; mass float64
//	  meta flag uint8, then the optional schema/filter metadata
//	  family count uint16, then per family: label, fingerprint, a zero uint64
//	  streamLen uint64               bytes of the key delta stream
//	data sections, back to back in this order:
//	  samples   groups × kw          every 64th stored key, ascending
//	  offsets   groups × ow          where each sample's deltas start in stream
//	  stream    streamLen bytes      uvarint key[i+1]−key[i], key[nonzero] = cells
//	  slotOf    nonzero × sw         slot of the i-th smallest key
//	  keyOfSlot nonzero × kw         key stored at slot j (schedule order)
//	  blocks    slots × float64      the values, in slot order
//	  crcs      numBlocks × uint32   IEEE CRC-32 of each block
//	  indexCRC  uint32               sparse only: IEEE CRC-32 of samples…keyOfSlot
//
// Every width and offset follows from the header: kw = bytes(cells−1),
// sw = bytes(nonzero−1), ow = bytes(streamLen), groups = ⌈nonzero/64⌉, and
// block b is the blockSize×8 bytes (fewer for the last block) at
// blocks + b×blockSize×8. The four fixed-width sections are packed words,
// each followed by 8−w pad bytes so the reader's one 8-byte load of the last
// entry stays inside its section. A dense file has streamLen 0, its index
// sections are empty (pads too), its blocks hold cells slots, and it records
// no families.
//
// Slots are schedule positions in the sparse shape: slot 0 is the most
// important coefficient. Each fact is stored once. key→slot is the
// compressed ascending key set (one absolute sample per 64 keys, one-byte
// deltas between neighbours at any density above 1/128 — "Space-Efficient
// Data-Analysis Queries on Grids" is the grounding: about 2+log₂(cells/n)
// bits per key and ⌈log₂ n⌉ bits per permutation entry per direction are
// what the information costs) plus slotOf; slot→key is keyOfSlot; values
// are raw float64 words in slot order, in blocks. A group's
// deltas sum to the next sample (to cells for the last), so "key absent" is
// checked, not assumed; a found key is served only if keyOfSlot[slotOf[i]]
// names it.
//
// Verification is the same in both shapes: every byte past the prelude is
// served only behind a CRC-32. The header blob has its own, checked at open.
// A block is checked the first time any of its slots is served and marked
// verified in a bitmap; later reads are windows of the file's bytes with no
// check. A sparse file's index sections share indexCRC, checked the first
// time a read needs them. A check that fails is never remembered, so every
// retry checks again and fails again. Corruption becomes per-key retrieval
// errors the engine degrades over.
//
// indexCRC was added without a new version number, since dense files did
// not change: a sparse file written before it is four bytes short of what
// its header derives, and readers name that case and send it back to
// wvlayout. The hot region went without one too. A sparse file once kept
// its first hot slots as raw words outside the blocks, counted by the
// header's hot word, and each family record carried the share of its
// schedule prefix that region held. Now every value is in a checksummed
// block: the writer puts 0 in both words, which leaves a dense file's bytes
// as they were. A reader refuses a file whose hot word is not 0, naming the
// hot region, and skips the family word.
package layout

import (
	"bufio"
	"cmp"
	"encoding/binary"
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

	// groupSize is the key index sampling interval: one absolute key per
	// group, deltas in between.
	groupSize = 64

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

// Family records one penalty family the layout was bucketed against.
// Family 0 is the one the physical order follows exactly.
type Family struct {
	// Label is a human-readable family name ("sse", "canonical", …).
	Label string `json:"label"`
	// Fingerprint is the penalty fingerprint (penalty.Fingerprint) whose
	// schedule produced (or was recorded with) the layout order.
	Fingerprint string `json:"fingerprint"`
}

// FamilyOrder is a writer input: a penalty family's schedule key order.
// The first family supplied becomes the physical layout prefix.
type FamilyOrder struct {
	Label       string
	Fingerprint string
	// Keys is the family's retrieval order (most important first). It need
	// not mention every stored key; unmentioned keys follow in canonical
	// |value|-descending order.
	Keys []int
}

// WriteOptions configures Write.
type WriteOptions struct {
	// Cells is the domain size; every key must be in [0,Cells).
	Cells int
	// BlockSize is the block granularity in slots; 0 selects
	// DefaultBlockSize.
	BlockSize int
	// Meta optionally embeds the database identity (see Meta).
	Meta *Meta
	// Families optionally supplies penalty-family schedule orders. The
	// first family's order becomes the physical layout prefix; every family
	// is recorded in the header. Supplying any selects the
	// sparse shape. With none the file is dense when that is smaller, and a
	// sparse file's order is canonical: |value| descending, key ascending.
	Families []FamilyOrder
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

// uvarintLen is the length of v's uvarint encoding.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

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
	streamLen int64

	slots     int // value slots: nonzero, or cells in the dense shape
	groups    int
	numBlocks int
	keyWidth  int
	slotWidth int
	offWidth  int

	samplesOff   int64
	offsetsOff   int64
	streamOff    int64
	slotOfOff    int64
	keyOfSlotOff int64
	blocksOff    int64
	crcsOff      int64
	fileSize     int64
}

func (g *geometry) dense() bool { return g.flags&flagDense != 0 }

// derive fills the counts, widths and section offsets in from the header
// fields; dataStart is where the first section begins.
func (g *geometry) derive(dataStart int64) {
	g.slots, g.groups = g.nonzero, (g.nonzero+groupSize-1)/groupSize
	packed := packedSize
	if g.dense() {
		g.slots, g.groups = g.cells, 0
		packed = func(int, int) int64 { return 0 }
	}
	g.numBlocks = (g.slots + g.blockSize - 1) / g.blockSize
	g.keyWidth = wordWidth(uint64(g.cells - 1))
	g.slotWidth = wordWidth(uint64(max(g.nonzero, 1) - 1))
	g.offWidth = wordWidth(uint64(g.streamLen))
	off := dataStart
	section := func(size int64) int64 {
		at := off
		off += size
		return at
	}
	g.samplesOff = section(packed(g.groups, g.keyWidth))
	g.offsetsOff = section(packed(g.groups, g.offWidth))
	g.streamOff = section(g.streamLen)
	g.slotOfOff = section(packed(g.nonzero, g.slotWidth))
	g.keyOfSlotOff = section(packed(g.nonzero, g.keyWidth))
	g.blocksOff = section(int64(g.slots) * 8)
	g.crcsOff = section(int64(g.numBlocks+g.indexCRCs()) * 4)
	g.fileSize = off
}

// indexCRCs is the number of checksums after the block ones: indexCRC in a
// sparse file, nothing in a dense one.
func (g *geometry) indexCRCs() int {
	if g.dense() {
		return 0
	}
	return 1
}

// checkBlock checks block b's value words against its stored checksum.
func (g *geometry) checkBlock(crcs []byte, b int, vals []byte) error {
	if got, want := crc32.ChecksumIEEE(vals), binary.LittleEndian.Uint32(crcs[4*b:]); got != want {
		return fmt.Errorf("layout: block %d checksum mismatch (file %08x, computed %08x)", b, want, got)
	}
	return nil
}

// checkIndex checks sum, the CRC-32 of a sparse file's index sections, from
// samples through keyOfSlot, against indexCRC.
func (g *geometry) checkIndex(crcs []byte, sum uint32) error {
	if want := binary.LittleEndian.Uint32(crcs[4*g.numBlocks:]); sum != want {
		return fmt.Errorf("layout: key index checksum mismatch (file %08x, computed %08x)", want, sum)
	}
	return nil
}

// blockSlots returns the slot range [lo,hi) of block b.
func (g *geometry) blockSlots(b int) (lo, hi int) {
	lo = b * g.blockSize
	return lo, min(lo+g.blockSize, g.slots)
}

// coef is one stored coefficient; i is its rank among the ascending keys.
type coef struct {
	k int
	v float64
	i int
}

// Candidates is what Write weighed for one input: the file's size in each
// shape, and the shape it wrote.
type Candidates struct {
	DenseBytes  int64
	SparseBytes int64
	// Dense is Write's choice: the dense file is strictly smaller and no
	// Families were supplied.
	Dense bool
}

// input is a validated Write input and both candidate files' geometry.
type input struct {
	opts  WriteOptions
	pairs []coef // the nonzero coefficients, ascending key, i = rank
	// families are the sparse file's.
	families      []Family
	sparse, dense geometry
}

// prepare validates Write's input and derives both shapes' geometry. It does
// none of the work only the sparse file needs: the schedule order and the
// key stream itself.
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
	var streamLen int64
	for i := range pairs {
		if i > 0 && pairs[i].k == pairs[i-1].k {
			return nil, fmt.Errorf("layout: duplicate key %d", pairs[i].k)
		}
		pairs[i].i = i
		mass += math.Abs(pairs[i].v)
		next := opts.Cells
		if i+1 < len(pairs) {
			next = pairs[i+1].k
		}
		streamLen += int64(uvarintLen(uint64(next - pairs[i].k)))
	}
	n := len(pairs)

	families := make([]Family, 0, len(opts.Families)+1)
	if len(opts.Families) == 0 {
		families = append(families, Family{Label: "canonical", Fingerprint: "canonical:|value|"})
	}
	for _, fo := range opts.Families {
		families = append(families, Family{Label: fo.Label, Fingerprint: fo.Fingerprint})
	}

	in := &input{opts: opts, pairs: pairs, families: families}
	in.sparse = geometry{cells: opts.Cells, nonzero: n,
		blockSize: opts.BlockSize, mass: mass, streamLen: streamLen}
	in.dense = geometry{flags: flagDense, cells: opts.Cells, nonzero: n,
		blockSize: opts.BlockSize, mass: mass}
	in.sparse.derive(int64(preludeSize + len(encodeHeaderBlob(&in.sparse, opts.Meta, families))))
	in.dense.derive(int64(preludeSize + len(encodeHeaderBlob(&in.dense, opts.Meta, nil))))
	return in, nil
}

func (in *input) candidates() Candidates {
	return Candidates{
		DenseBytes:  in.dense.fileSize,
		SparseBytes: in.sparse.fileSize,
		Dense:       len(in.opts.Families) == 0 && in.dense.fileSize < in.sparse.fileSize,
	}
}

// Write writes the complete .wvls file for the nonzero coefficients
// (keys[i], values[i]) at path, through WriteFile: a reader that has the
// old file mapped keeps it. See Encode for the file it writes.
func Write(path string, keys []int, values []float64, opts WriteOptions) (Candidates, error) {
	var c Candidates
	err := WriteFile(path, func(w io.Writer) (err error) {
		c, err = Encode(w, keys, values, opts)
		return err
	})
	return c, err
}

// Encode writes the complete .wvls file for the nonzero coefficients
// (keys[i], values[i]) to w, in the smaller shape unless Families ask for
// the sparse one, and returns both shapes' sizes. Zero values are dropped;
// duplicate keys are an error. A sparse file's physical order is the first
// supplied family's schedule order (keys it does not mention, and all keys
// when no family is given, follow in canonical |value|-descending,
// key-ascending order). Equal inputs give byte-identical files.
func Encode(w io.Writer, keys []int, values []float64, opts WriteOptions) (Candidates, error) {
	in, err := prepare(keys, values, opts)
	if err != nil {
		return Candidates{}, err
	}
	c := in.candidates()
	if c.Dense {
		return c, in.writeDense(w)
	}
	return c, in.writeSparse(w)
}

// writeDense writes every cell's value in key order, zeros included: the
// slot is the key. writeBlocks asks for the cells in ascending order, so
// one cursor over the ascending pairs finds each stored value.
func (in *input) writeDense(dst io.Writer) error {
	g, pairs, next := &in.dense, in.pairs, 0
	return encodeFile(dst, g, encodeHeaderBlob(g, in.opts.Meta, nil), func(w *bufio.Writer, buf []byte) error {
		return writeBlocks(w, g, buf, func(key int) float64 {
			if next < len(pairs) && pairs[next].k == key {
				next++
				return pairs[next-1].v
			}
			return 0
		})
	})
}

// writeSparse lays the nonzero coefficients out in schedule order behind
// the compressed key index.
func (in *input) writeSparse(dst io.Writer) error {
	g, pairs := &in.sparse, in.pairs
	n := len(pairs)

	// Canonical order: |value| descending, key ascending — "biggest first",
	// the data-driven proxy for every penalty's importance ranking. The
	// order is total, so an unstable sort of the records themselves will do.
	bySlot := slices.Clone(pairs) // slot j holds bySlot[j]
	slices.SortFunc(bySlot, func(a, b coef) int {
		if c := cmp.Compare(math.Abs(b.v), math.Abs(a.v)); c != 0 {
			return c
		}
		return cmp.Compare(a.k, b.k)
	})

	// A supplied family order overrides the prefix: its keys (those stored)
	// come first in its schedule order, the rest keep canonical order.
	if len(in.opts.Families) > 0 {
		taken := make([]bool, n)
		reordered := make([]coef, 0, n)
		for _, k := range in.opts.Families[0].Keys {
			i, ok := slices.BinarySearchFunc(pairs, k, func(c coef, k int) int { return cmp.Compare(c.k, k) })
			if ok && !taken[i] {
				taken[i] = true
				reordered = append(reordered, pairs[i])
			}
		}
		for _, c := range bySlot {
			if !taken[c.i] {
				reordered = append(reordered, c)
			}
		}
		bySlot = reordered
	}
	slotOf := make([]int, n) // slot of pairs[i]
	for j, c := range bySlot {
		slotOf[c.i] = j
	}

	groupStart := make([]int, g.groups)
	stream := make([]byte, 0, g.streamLen)
	for i, c := range pairs {
		if i%groupSize == 0 {
			groupStart[i/groupSize] = len(stream)
		}
		next := g.cells
		if i+1 < n {
			next = pairs[i+1].k
		}
		stream = binary.AppendUvarint(stream, uint64(next-c.k))
	}

	return encodeFile(dst, g, encodeHeaderBlob(g, in.opts.Meta, in.families), func(bw *bufio.Writer, buf []byte) error {
		// Everything from samples through keyOfSlot goes through indexCRC on
		// its way out.
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
		if err := writePacked(g.groups, g.keyWidth, func(i int) uint64 { return uint64(pairs[i*groupSize].k) }); err != nil {
			return err
		}
		if err := writePacked(g.groups, g.offWidth, func(i int) uint64 { return uint64(groupStart[i]) }); err != nil {
			return err
		}
		if _, err := w.Write(stream); err != nil {
			return err
		}
		if err := writePacked(n, g.slotWidth, func(i int) uint64 { return uint64(slotOf[i]) }); err != nil {
			return err
		}
		if err := writePacked(n, g.keyWidth, func(j int) uint64 { return uint64(bySlot[j].k) }); err != nil {
			return err
		}
		return writeBlocks(bw, g, buf, func(slot int) float64 { return bySlot[slot].v }, sum.Sum32())
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
// meta and the families.
func encodeHeaderBlob(g *geometry, meta *Meta, families []Family) []byte {
	var b []byte
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	u32 := func(v uint32) { b = binary.LittleEndian.AppendUint32(b, v) }
	u16 := func(v uint16) { b = binary.LittleEndian.AppendUint16(b, v) }
	str8 := func(s string) { b = append(b, byte(len(s))); b = append(b, s...) }
	str16 := func(s string) { u16(uint16(len(s))); b = append(b, s...) }

	u64(uint64(g.cells))
	u64(uint64(g.nonzero))
	u64(0) // hot
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
	u16(uint16(len(families)))
	for _, fam := range families {
		str8(fam.Label)
		str16(fam.Fingerprint)
		u64(0) // the hot region's coverage
	}
	u64(uint64(g.streamLen))
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
func readHeader(file []byte) (*geometry, *Meta, []Family, error) {
	if len(file) < preludeSize {
		return nil, nil, nil, fmt.Errorf("layout: reading prelude: %w", io.ErrUnexpectedEOF)
	}
	prelude, size := file[:preludeSize], int64(len(file))
	if string(prelude[0:4]) != Magic {
		return nil, nil, nil, fmt.Errorf("layout: bad magic %q (not a .wvls file)", prelude[0:4])
	}
	switch v := binary.LittleEndian.Uint16(prelude[4:6]); v {
	case version:
	case 1:
		return nil, nil, nil, fmt.Errorf("layout: version 1 .wvls file; the format is derived data — rebuild with wvlayout")
	default:
		return nil, nil, nil, fmt.Errorf("layout: unsupported version %d", v)
	}
	flags := binary.LittleEndian.Uint16(prelude[6:8])
	if flags&flagQuantized != 0 {
		return nil, nil, nil, fmt.Errorf("layout: .wvls file with float32 block values, which are no longer read; the format is derived data — rebuild with wvlayout")
	}
	if flags&^flagDense != 0 {
		return nil, nil, nil, fmt.Errorf("layout: unknown flags %#x", flags)
	}
	hdrLen := binary.LittleEndian.Uint32(prelude[8:12])
	hdrCRC := binary.LittleEndian.Uint32(prelude[12:16])
	if int64(hdrLen) > size-preludeSize || hdrLen > 1<<24 {
		return nil, nil, nil, fmt.Errorf("layout: header length %d implausible", hdrLen)
	}
	blob := file[preludeSize : preludeSize+int64(hdrLen)]
	if got := crc32.ChecksumIEEE(blob); got != hdrCRC {
		return nil, nil, nil, fmt.Errorf("layout: header checksum mismatch (file %08x, computed %08x)", hdrCRC, got)
	}
	return decodeHeaderBlob(blob, flags, size)
}

// decodeHeaderBlob parses and validates the header blob. The section table
// is derived, not stored, so the one structural check is that the counts
// account for the actual file size to the byte; after it the read path can
// trust every offset unconditionally. A flipped dense flag fails the shape's
// own plausibility check below or that size check, in either direction.
func decodeHeaderBlob(blob []byte, flags uint16, fileSize int64) (*geometry, *Meta, []Family, error) {
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
			return nil, nil, nil, fmt.Errorf("layout: implausible dimension count %d", dims)
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
	// A family takes at least 11 blob bytes (two lengths and a float64), so
	// a count the rest of the blob cannot hold sizes nothing.
	nf := int(r.u16())
	if nf > 256 || nf*11 > len(blob)-r.pos {
		return nil, nil, nil, fmt.Errorf("layout: implausible family count %d", nf)
	}
	families := make([]Family, nf)
	for i := range families {
		families[i].Label = r.str8()
		families[i].Fingerprint = r.str16()
		r.u64() // the hot region's coverage
	}
	g.streamLen = int64(r.u64())
	if r.err != nil {
		return nil, nil, nil, r.err
	}
	if r.pos != len(blob) {
		return nil, nil, nil, fmt.Errorf("layout: %d trailing header bytes", len(blob)-r.pos)
	}
	if hot != 0 {
		return nil, nil, nil, fmt.Errorf("layout: .wvls file with a hot region of %d slots, which is no longer read; the format is derived data — rebuild it from the source data (wvload)", hot)
	}

	// Geometry plausibility: non-negative counts that fit the domain. A
	// sparse file has one to ten stream bytes per key, which also bounds
	// nonzero by the file size; a dense one has no stream and at least four
	// bytes per cell. Either way the offset arithmetic below cannot overflow.
	if g.cells <= 0 || g.nonzero < 0 || g.nonzero > g.cells {
		return nil, nil, nil, fmt.Errorf("layout: implausible geometry (cells %d, nonzero %d)", g.cells, g.nonzero)
	}
	if g.blockSize <= 0 || g.blockSize > maxBlockSize {
		return nil, nil, nil, fmt.Errorf("layout: implausible block size %d", g.blockSize)
	}
	if g.dense() {
		if g.streamLen != 0 || int64(g.cells) > fileSize/4 {
			return nil, nil, nil, fmt.Errorf("layout: implausible dense geometry (cells %d, stream %d bytes)",
				g.cells, g.streamLen)
		}
	} else if n := int64(g.nonzero); g.streamLen < n || g.streamLen > fileSize || g.streamLen > n*binary.MaxVarintLen64 {
		return nil, nil, nil, fmt.Errorf("layout: implausible key stream (%d bytes for %d keys)", g.streamLen, g.nonzero)
	}
	g.derive(int64(preludeSize + len(blob)))
	if !g.dense() && fileSize == g.fileSize-4 {
		return nil, nil, nil, fmt.Errorf("layout: sparse file 4 bytes short: no index checksum (written before it existed, or truncated); the format is derived data — rebuild with wvlayout")
	}
	if g.fileSize != fileSize {
		return nil, nil, nil, fmt.Errorf("layout: file size %d does not match header (want %d)", fileSize, g.fileSize)
	}
	return g, meta, families, nil
}
