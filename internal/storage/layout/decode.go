package layout

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Header is what a .wvls file declares before its values: the database
// identity it embeds (nil for a bare layout), the domain size and the number
// of nonzero coefficients.
type Header struct {
	Meta    *Meta
	Cells   int
	Nonzero int
}

// Decode reads the whole .wvls file r holds in its first size bytes: the
// form of Open for a reader that wants the coefficients in memory rather
// than a mapping. It checks and parses the header, hands it to begin, and
// then feeds the function begin returned every nonzero coefficient in
// ascending key order. Every size the header announces is checked against
// size before anything is allocated from it, and begin sees Nonzero before
// any coefficient arrives, so it can size its destination once; an error
// from begin aborts the read and is returned as is.
//
// Decode never maps the file: it reads it with positioned reads through
// buffers of a block or less. The one exception is a sparse file's values,
// which the key-order walk visits in no order: unless r holds the file in
// memory already, Decode holds them whole while it walks (8 bytes per
// value, 4 when quantized). Each block's checksum is checked before its
// values go, and a sparse file's key index and hot region are checked
// against indexCRC before the walk starts; a later block of a dense file
// can still fail, so a caller must not publish what it received unless
// Decode returns nil.
func Decode(r io.ReaderAt, size int64, begin func(*Header) (func(key int, value float64), error)) error {
	var prelude [preludeSize]byte
	if err := readAt(r, prelude[:], 0); err != nil {
		return fmt.Errorf("layout: reading prelude: %w", err)
	}
	g, meta, _, err := readHeader(prelude[:], size, func(blob []byte) error {
		return readAt(r, blob, preludeSize)
	})
	if err != nil {
		return err
	}
	crcs := make([]byte, g.fileSize-g.crcsOff)
	if err := readAt(r, crcs, g.crcsOff); err != nil {
		return fmt.Errorf("layout: reading checksums: %w", err)
	}
	emit, err := begin(&Header{Meta: meta, Cells: g.cells, Nonzero: g.nonzero})
	if err != nil {
		return err
	}
	if g.dense() {
		return decodeDense(r, g, crcs, emit)
	}
	return decodeSparse(r, g, crcs, emit)
}

// readBuffer sizes each buffer the sparse walk reads a section through.
const readBuffer = 16 << 10

// readAt fills p from off; a short read is an error.
func readAt(r io.ReaderAt, p []byte, off int64) error {
	if len(p) == 0 {
		return nil
	}
	n, err := r.ReadAt(p, off)
	if n == len(p) {
		return nil
	}
	if err == nil || err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// decodeDense hands over the cells of a dense file block by block: one
// tight loop over each checked block's words, the nonzero ones (a stored -0
// is a zero) with the slot as the key.
func decodeDense(r io.ReaderAt, g *geometry, crcs []byte, emit func(int, float64)) error {
	buf := make([]byte, min(g.blockSize, g.slots)*g.valWidth)
	emitted := 0
	for b := 0; b < g.numBlocks; b++ {
		lo, hi := g.blockSlots(b)
		vals := buf[:(hi-lo)*g.valWidth]
		if err := readAt(r, vals, g.blocksOff+int64(lo)*int64(g.valWidth)); err != nil {
			return fmt.Errorf("layout: reading block %d: %w", b, err)
		}
		if err := g.checkBlock(crcs, b, vals); err != nil {
			return err
		}
		if g.valWidth == 8 {
			for q := 0; q < len(vals); q += 8 {
				if w := binary.LittleEndian.Uint64(vals[q:]); w<<1 != 0 {
					emit(lo+q/8, math.Float64frombits(w))
					emitted++
				}
			}
			continue
		}
		for q := 0; q < len(vals); q += 4 {
			if w := binary.LittleEndian.Uint32(vals[q:]); w<<1 != 0 {
				emit(lo+q/4, float64(math.Float32frombits(w)))
				emitted++
			}
		}
	}
	// float32 can round a stored value to zero; float64 cells cannot.
	if emitted > g.nonzero || (emitted != g.nonzero && g.valWidth == 8) {
		return fmt.Errorf("layout: %d nonzero cells, the header announces %d", emitted, g.nonzero)
	}
	return nil
}

// decodeSparse walks a sparse file's keys in ascending order and hands over
// each one's value. The walk visits the values in no order at all, so a
// reader that does not hold the file in memory already has its values, hot
// then cold, read whole first; one that does (a bytes.Reader, a
// strings.Reader) is read in place, a value at a time, and holds no copy.
// Each block is checked against its checksum, and then the key index and
// the hot region against indexCRC in one sequential pass. The walk is a
// second pass, a key group at a time: samples and offsets whole, the delta
// stream and slotOf through buffered readers. keyOfSlot, which serving
// reads and a load does not, is checked but not walked. The walk still
// checks what keeps it in bounds — each group's deltas fill exactly the
// stream bytes its offsets bound and lead to the next sample (to cells
// after the last key), every slot is below nonzero — so an index whose
// damage the checksum misses fails rather than panics.
func decodeSparse(r io.ReaderAt, g *geometry, crcs []byte, emit func(int, float64)) error {
	n, cells, hotBytes := g.nonzero, uint64(g.cells), int64(g.hotCount)*8
	var vals []byte // the values, hot then cold, or nil to read them in place
	if _, inMemory := r.(interface{ Len() int }); !inMemory {
		vals = make([]byte, g.crcsOff-g.hotOff)
		if err := readAt(r, vals, g.hotOff); err != nil {
			return fmt.Errorf("layout: reading values: %w", err)
		}
	}
	var block []byte
	for b := 0; b < g.numBlocks; b++ {
		lo, hi := g.blockSlots(b)
		off, size := hotBytes+int64(lo-g.hotCount)*int64(g.valWidth), (hi-lo)*g.valWidth
		if vals != nil {
			block = vals[off : off+int64(size)]
		} else {
			if block == nil {
				block = make([]byte, min(g.blockSize, g.slots-g.hotCount)*g.valWidth)
			}
			block = block[:size]
			if err := readAt(r, block, g.hotOff+off); err != nil {
				return fmt.Errorf("layout: reading block %d: %w", b, err)
			}
		}
		if err := g.checkBlock(crcs, b, block); err != nil {
			return err
		}
	}
	sum, index := crc32.NewIEEE(), g.blocksOff-g.samplesOff
	if _, err := io.CopyBuffer(sum, io.NewSectionReader(r, g.samplesOff, index), make([]byte, min(index, readBuffer))); err != nil {
		return fmt.Errorf("layout: reading key index: %w", err)
	}
	if err := g.checkIndex(crcs, sum.Sum32()); err != nil {
		return err
	}

	rawSamples := make([]byte, g.offsetsOff-g.samplesOff)
	rawOffsets := make([]byte, g.streamOff-g.offsetsOff)
	if err := readAt(r, rawSamples, g.samplesOff); err != nil {
		return fmt.Errorf("layout: reading key index: %w", err)
	}
	if err := readAt(r, rawOffsets, g.offsetsOff); err != nil {
		return fmt.Errorf("layout: reading key index: %w", err)
	}
	samples, offsets := newPacked(rawSamples, g.keyWidth), newPacked(rawOffsets, g.offWidth)
	sequential := func(off, size int64) *bufio.Reader {
		return bufio.NewReaderSize(io.NewSectionReader(r, off, size), int(min(size, readBuffer)))
	}
	stream := sequential(g.streamOff, g.streamLen)
	slotOfs := sequential(g.slotOfOff, int64(n)*int64(g.slotWidth))
	var (
		keys, slots [groupSize]uint64
		values      [groupSize]float64
		slotBuf     [groupSize*8 + 8]byte
		deltaBuf    [groupSize * binary.MaxVarintLen64]byte
		word        [8]byte
	)
	slotOf := newPacked(slotBuf[:], g.slotWidth)
	pos, next := uint64(0), uint64(0) // stream bytes read; the key after the previous group's last
	for first := 0; first < n; first += groupSize {
		group, m := first/groupSize, min(groupSize, n-first)
		key, from, to := samples.at(group), offsets.at(group), uint64(g.streamLen)
		if first+m < n {
			to = offsets.at(group + 1)
		}
		if from != pos || (first > 0 && key != next) || key >= cells || to < from || to > uint64(g.streamLen) || to-from > uint64(len(deltaBuf)) {
			return errKeyIndex(group)
		}
		deltas := deltaBuf[:to-from]
		if _, err := io.ReadFull(stream, deltas); err != nil {
			return fmt.Errorf("layout: reading key index: %w", err)
		}
		if _, err := io.ReadFull(slotOfs, slotBuf[:m*g.slotWidth]); err != nil {
			return fmt.Errorf("layout: reading slotOf: %w", err)
		}
		p := 0 // into deltas; a delta below 128 is its own one-byte uvarint
		for q := 0; q < m; q++ {
			if p >= len(deltas) {
				return errKeyIndex(group)
			}
			delta := uint64(deltas[p])
			if delta < 0x80 {
				p++
			} else {
				d, w := binary.Uvarint(deltas[p:])
				if w <= 0 {
					return errKeyIndex(group)
				}
				delta, p = d, p+w
			}
			if delta == 0 || delta > cells-key {
				return errKeyIndex(group)
			}
			slots[q], keys[q] = slotOf.at(q), key
			key += delta
		}
		if p != len(deltas) {
			return errKeyIndex(group)
		}
		for q := 0; q < m; q++ {
			if slots[q] >= uint64(n) {
				return fmt.Errorf("layout: key %d has slot %d of %d", keys[q], slots[q], n)
			}
		}
		pos, next = to, key
		// Unquantized blocks continue the hot region's 8-byte words, so then
		// the slot alone addresses the value, with no branch on the tier: a
		// tight loop of independent loads, whose cache misses overlap.
		if vals != nil && g.valWidth == 8 {
			for q := 0; q < m; q++ {
				values[q] = math.Float64frombits(binary.LittleEndian.Uint64(vals[8*slots[q]:]))
			}
		} else {
			for q := 0; q < m; q++ {
				off, width := 8*int64(slots[q]), 8
				if g.valWidth == 4 && off >= hotBytes {
					off, width = hotBytes+4*(int64(slots[q])-int64(g.hotCount)), 4
				}
				raw := word[:width]
				if vals != nil {
					raw = vals[off : off+int64(width)]
				} else if err := readAt(r, raw, g.hotOff+off); err != nil {
					return fmt.Errorf("layout: reading slot %d: %w", slots[q], err)
				}
				if width == 8 {
					values[q] = math.Float64frombits(binary.LittleEndian.Uint64(raw))
				} else {
					values[q] = float64(math.Float32frombits(binary.LittleEndian.Uint32(raw)))
				}
			}
		}
		for q := 0; q < m; q++ {
			if values[q] != 0 {
				emit(int(keys[q]), values[q])
			}
		}
	}
	if n > 0 && next != cells {
		return errKeyIndex((n - 1) / groupSize)
	}
	return nil
}
