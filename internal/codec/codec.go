// Package codec reads a stored materialized view — the schema, the wavelet
// filter identity, and the transformed data vector Δ̂ — as a stream of
// coefficients in ascending key order, and frames the shard wire protocol
// (wire.go). A view file is a .wvls layout (internal/storage/layout, which
// also writes it); Decode tells it by its magic from the .wvdb stream that
// earlier versions wrote, which stays readable so old files still load and
// convert.
//
// The .wvdb format (all integers little-endian):
//
//	magic   "WVDB"                      4 bytes
//	version uint16                      currently 2
//	filter  uint8 length + name bytes
//	tuples  int64                       total tuple count (informational)
//	dims    uint16 count, then per dim:
//	          uint16 name length + name bytes
//	          uint32 size
//	          float64 window lo, float64 window hi   (version ≥ 2;
//	            lo == hi == 0 means "no quantization window recorded")
//	coeffs  uint64 count, then per coefficient:
//	          uint64 key, float64 bits value   (strictly ascending keys)
//	crc     uint32 IEEE CRC-32 of everything above
package codec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/dataset"
	"repro/internal/storage"
	"repro/internal/storage/layout"
)

const (
	magic = "WVDB"
	// version 2 added per-dimension quantization windows; version-1 streams
	// are still readable (their windows read back as unset).
	version = 2
)

// Header is everything a stream declares before its coefficients.
type Header struct {
	FilterName string
	TupleCount int64
	Schema     *dataset.Schema
	// Windows holds the per-dimension quantization windows mapping bins back
	// to raw units; nil when the stream predates version 2 or none were
	// recorded.
	Windows [][2]float64
	// Count is the number of nonzero coefficients that follow the header (a
	// quantized .wvls file may hand over fewer: float32 can round a value to
	// zero).
	Count int
}

// Snapshot is the deserialized form of a stored database.
type Snapshot struct {
	Header
	// Keys and Values hold the nonzero entries of Δ̂ in ascending key order.
	Keys   []int
	Values []float64
}

// pairBytes is the encoded size of one coefficient; blockPairs of them make
// the 64 KiB unit the reader moves, hashes and checks at a time.
const (
	pairBytes  = 16
	blockPairs = 4096
)

// bodyReader reads from a buffered source and hashes exactly the bytes it
// hands out, so the checksum trailer can be read unhashed afterwards.
type bodyReader struct {
	br  *bufio.Reader
	crc hash.Hash32
	// left is what the stream holds past the bytes handed out so far.
	left int64
}

func (b *bodyReader) full(p []byte) error {
	if _, err := io.ReadFull(b.br, p); err != nil {
		return err
	}
	b.crc.Write(p)
	b.left -= int64(len(p))
	return nil
}

// bytes reads n bytes into a fresh buffer, once the stream is known to hold
// them.
func (b *bodyReader) bytes(n int) ([]byte, error) {
	if int64(n) > b.left {
		return nil, fmt.Errorf("codec: a %d-byte field, the stream holds %d more bytes", n, b.left)
	}
	p := make([]byte, n)
	return p, b.full(p)
}

func (b *bodyReader) uint16() (uint16, error) {
	var buf [2]byte
	if err := b.full(buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(buf[:]), nil
}

func (b *bodyReader) uint32() (uint32, error) {
	var buf [4]byte
	if err := b.full(buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(buf[:]), nil
}

func (b *bodyReader) uint64() (uint64, error) {
	var buf [8]byte
	if err := b.full(buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// Read deserializes a snapshot, verifying magic, version, structural bounds
// and the trailing checksum.
func Read(r io.Reader) (*Snapshot, error) {
	snap := new(Snapshot)
	err := Decode(r, func(h *Header) (func(int, float64), error) {
		snap.Header = *h
		snap.Keys = make([]int, 0, h.Count)
		snap.Values = make([]float64, 0, h.Count)
		return func(k int, v float64) {
			snap.Keys = append(snap.Keys, k)
			snap.Values = append(snap.Values, v)
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return snap, nil
}

// Decode is the one view-file reader. It parses and checks the header, hands
// it to begin, and then feeds the function begin returned every nonzero
// coefficient in ascending key order inside the schema's domain. begin sees
// Count before any coefficient arrives, so it can size its destination
// once; an error from begin aborts the read and is returned as is. Every
// size the header announces is checked against the bytes the stream holds
// before anything is sized from it: a file or an in-memory reader reports
// them, and any other reader is read whole first.
//
// A .wvls file goes to layout.Decode; a .wvdb stream is read here, one
// 64 KiB block at a time. Either way coefficients can be handed over before
// the checksums that cover them are verified: a caller must not publish
// what it received unless Decode returns nil.
func Decode(r io.Reader, begin func(*Header) (func(key int, value float64), error)) error {
	ra, size, err := sized(r)
	if err != nil {
		return err
	}
	var head [len(layout.Magic)]byte
	if _, err := ra.ReadAt(head[:], 0); err == nil && string(head[:]) == layout.Magic {
		return decodeLayout(ra, size, begin)
	}
	// The buffer only has to serve the header's small fields and the
	// trailer: a block read is larger than it, so bufio reads the block
	// straight into the caller's slice.
	br := bufio.NewReader(io.NewSectionReader(ra, 0, size))
	b := &bodyReader{br: br, crc: crc32.NewIEEE(), left: size}
	h, err := b.header()
	if err != nil {
		return err
	}
	if need := int64(h.Count)*pairBytes + 4; need > b.left {
		return fmt.Errorf("codec: %d coefficients and the checksum need %d bytes, the stream holds %d", h.Count, need, b.left)
	}
	emit, err := begin(h)
	if err != nil {
		return err
	}
	cells := uint64(h.Schema.Cells())
	prev := -1
	block := make([]byte, min(h.Count, blockPairs)*pairBytes)
	for done := 0; done < h.Count; {
		n := min(h.Count-done, blockPairs)
		if err := b.full(block[:n*pairBytes]); err != nil {
			return fmt.Errorf("codec: reading coefficients from %d: %w", done, err)
		}
		for p := block[:n*pairBytes]; len(p) > 0; p = p[pairBytes:] {
			k := binary.LittleEndian.Uint64(p)
			if k >= cells {
				return fmt.Errorf("codec: coefficient key %d outside domain", k)
			}
			if int(k) <= prev {
				return fmt.Errorf("codec: coefficient keys not strictly ascending at %d", k)
			}
			prev = int(k)
			emit(prev, math.Float64frombits(binary.LittleEndian.Uint64(p[8:])))
		}
		done += n
	}
	// Trailer: read raw (unhashed) and compare.
	var tail [4]byte
	if _, err := io.ReadFull(b.br, tail[:]); err != nil {
		return fmt.Errorf("codec: reading checksum: %w", err)
	}
	if got, want := b.crc.Sum32(), binary.LittleEndian.Uint32(tail[:]); got != want {
		return fmt.Errorf("codec: checksum mismatch (stream %08x, computed %08x)", want, got)
	}
	// Reject trailing garbage.
	if _, err := b.br.ReadByte(); err != io.EOF {
		return fmt.Errorf("codec: trailing data after checksum")
	}
	return nil
}

// header reads everything up to and including the coefficient count.
func (b *bodyReader) header() (*Header, error) {
	head := make([]byte, 4)
	if err := b.full(head); err != nil {
		return nil, fmt.Errorf("codec: reading magic: %w", err)
	}
	if string(head) != magic {
		return nil, fmt.Errorf("codec: bad magic %q", head)
	}
	v, err := b.uint16()
	if err != nil {
		return nil, err
	}
	if v < 1 || v > version {
		return nil, fmt.Errorf("codec: unsupported version %d", v)
	}
	var nameLen [1]byte
	if err := b.full(nameLen[:]); err != nil {
		return nil, err
	}
	nameBuf := make([]byte, nameLen[0])
	if err := b.full(nameBuf); err != nil {
		return nil, err
	}
	h := &Header{FilterName: string(nameBuf)}
	tc, err := b.uint64()
	if err != nil {
		return nil, err
	}
	h.TupleCount = int64(tc)
	dims, err := b.uint16()
	if err != nil {
		return nil, err
	}
	if dims == 0 || dims > 64 {
		return nil, fmt.Errorf("codec: implausible dimension count %d", dims)
	}
	names := make([]string, dims)
	sizes := make([]int, dims)
	windows := make([][2]float64, dims)
	anyWindow := false
	for i := 0; i < int(dims); i++ {
		nl, err := b.uint16()
		if err != nil {
			return nil, err
		}
		nb, err := b.bytes(int(nl))
		if err != nil {
			return nil, err
		}
		names[i] = string(nb)
		sz, err := b.uint32()
		if err != nil {
			return nil, err
		}
		sizes[i] = int(sz)
		if v >= 2 {
			loBits, err := b.uint64()
			if err != nil {
				return nil, err
			}
			hiBits, err := b.uint64()
			if err != nil {
				return nil, err
			}
			windows[i] = [2]float64{math.Float64frombits(loBits), math.Float64frombits(hiBits)}
			if windows[i] != ([2]float64{}) {
				anyWindow = true
			}
		}
	}
	schema, err := dataset.NewSchema(names, sizes)
	if err != nil {
		return nil, fmt.Errorf("codec: invalid stored schema: %w", err)
	}
	h.Schema = schema
	if anyWindow {
		h.Windows = windows
	}
	count, err := b.uint64()
	if err != nil {
		return nil, err
	}
	if cells := uint64(schema.Cells()); count > cells {
		return nil, fmt.Errorf("codec: coefficient count %d exceeds domain size %d", count, cells)
	}
	h.Count = int(count)
	return h, nil
}

// Store materializes the snapshot's coefficients as a hash store.
func (s *Snapshot) Store() *storage.HashStore {
	st := storage.NewHashStoreSized(len(s.Keys))
	for i, k := range s.Keys {
		st.Add(k, s.Values[i])
	}
	return st
}
