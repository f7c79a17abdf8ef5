// Package codec serializes a materialized view — the schema, the wavelet
// filter identity, and the sparse transformed data vector Δ̂ — to a compact,
// versioned, checksummed binary stream, so a database can be precomputed
// once and shipped or reopened by query services.
//
// Format (all integers little-endian):
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
	"cmp"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"repro/internal/dataset"
	"repro/internal/storage"
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
	// Count is the number of coefficients that follow the header.
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
// the 64 KiB unit both directions move, hash and check at a time.
const (
	pairBytes  = 16
	blockPairs = 4096
)

// Write serializes a snapshot of the given store. The store's nonzero
// coefficients are written in ascending key order, so equal inputs produce
// byte-identical outputs. windows may be nil (written as all-zero windows)
// or must have one entry per dimension.
func Write(w io.Writer, schema *dataset.Schema, filterName string, tupleCount int64, store storage.Enumerable, windows [][2]float64) error {
	if schema == nil {
		return fmt.Errorf("codec: nil schema")
	}
	if len(filterName) == 0 || len(filterName) > 255 {
		return fmt.Errorf("codec: filter name length %d out of range", len(filterName))
	}
	if windows != nil && len(windows) != len(schema.Names) {
		return fmt.Errorf("codec: %d windows for %d dimensions", len(windows), len(schema.Names))
	}
	type pair struct {
		k int
		v float64
	}
	var pairs []pair
	if c, ok := store.(interface{ NonzeroCount() int }); ok {
		pairs = make([]pair, 0, c.NonzeroCount())
	}
	store.ForEachNonzero(func(k int, v float64) bool {
		pairs = append(pairs, pair{k, v})
		return true
	})
	slices.SortFunc(pairs, func(a, b pair) int { return cmp.Compare(a.k, b.k) })

	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 1<<20)

	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	if err := writeUint16(bw, version); err != nil {
		return err
	}
	if err := bw.WriteByte(byte(len(filterName))); err != nil {
		return err
	}
	if _, err := bw.WriteString(filterName); err != nil {
		return err
	}
	if err := writeUint64(bw, uint64(tupleCount)); err != nil {
		return err
	}
	if len(schema.Names) > math.MaxUint16 {
		return fmt.Errorf("codec: too many dimensions")
	}
	if err := writeUint16(bw, uint16(len(schema.Names))); err != nil {
		return err
	}
	for i, name := range schema.Names {
		if len(name) > math.MaxUint16 {
			return fmt.Errorf("codec: dimension name too long")
		}
		if err := writeUint16(bw, uint16(len(name))); err != nil {
			return err
		}
		if _, err := bw.WriteString(name); err != nil {
			return err
		}
		if schema.Sizes[i] < 0 || int64(schema.Sizes[i]) > math.MaxUint32 {
			return fmt.Errorf("codec: dimension size %d out of range", schema.Sizes[i])
		}
		if err := writeUint32(bw, uint32(schema.Sizes[i])); err != nil {
			return err
		}
		var win [2]float64
		if windows != nil {
			win = windows[i]
		}
		if err := writeUint64(bw, math.Float64bits(win[0])); err != nil {
			return err
		}
		if err := writeUint64(bw, math.Float64bits(win[1])); err != nil {
			return err
		}
	}
	if err := writeUint64(bw, uint64(len(pairs))); err != nil {
		return err
	}
	block := make([]byte, 0, blockPairs*pairBytes)
	for len(pairs) > 0 {
		n := min(len(pairs), blockPairs)
		block = block[:0]
		for _, p := range pairs[:n] {
			block = binary.LittleEndian.AppendUint64(block, uint64(p.k))
			block = binary.LittleEndian.AppendUint64(block, math.Float64bits(p.v))
		}
		if _, err := bw.Write(block); err != nil {
			return err
		}
		pairs = pairs[n:]
	}
	// Flush the body through the hashing MultiWriter, then append the CRC
	// directly to the destination so it is not hashed itself.
	if err := bw.Flush(); err != nil {
		return err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	_, err := w.Write(tail[:])
	return err
}

// bodyReader reads from a buffered source and hashes exactly the bytes it
// hands out, so the checksum trailer can be read unhashed afterwards.
type bodyReader struct {
	br  *bufio.Reader
	crc hash.Hash32
}

func (b *bodyReader) full(p []byte) error {
	if _, err := io.ReadFull(b.br, p); err != nil {
		return err
	}
	b.crc.Write(p)
	return nil
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

// Decode is the one .wvdb reader. It parses and checks the header, hands it
// to begin, and then feeds the function begin returned every coefficient in
// file order — strictly ascending keys inside the schema's domain — one
// 64 KiB block of the stream at a time. begin sees Count before any
// coefficient arrives, so it can size its destination once; an error from
// begin aborts the read and is returned as is.
//
// Coefficients are handed over before the trailing checksum can be verified:
// a caller must not publish what it received unless Decode returns nil.
func Decode(r io.Reader, begin func(*Header) (func(key int, value float64), error)) error {
	// The buffer only has to serve the header's small fields and the
	// trailer: a block read is larger than it, so bufio reads the block
	// straight into the caller's slice.
	b := &bodyReader{br: bufio.NewReader(r), crc: crc32.NewIEEE()}
	h, err := b.header()
	if err != nil {
		return err
	}
	emit, err := begin(h)
	if err != nil {
		return err
	}
	cells := uint64(h.Schema.Cells())
	prev := -1
	block := make([]byte, blockPairs*pairBytes)
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
		nb := make([]byte, nl)
		if err := b.full(nb); err != nil {
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

func writeUint16(w *bufio.Writer, v uint16) error {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func writeUint32(w *bufio.Writer, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func writeUint64(w *bufio.Writer, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, err := w.Write(b[:])
	return err
}
