package codec

// Wire frames of the distributed evaluation tier (internal/dist): a shard
// server exposes its coefficient partition over plain TCP, and the
// coordinator's RemoteStore speaks this framing to it. The protocol is
// deliberately minimal — one request in flight per connection, the client
// pool provides parallelism — and the representation is compact: packed
// coefficient keys travel as zig-zag varint deltas (consecutive schedule
// keys are near each other far more often than not, so a sorted or
// clustered batch costs one or two bytes per key), values as raw float64
// bits (bit-exactness is non-negotiable — progressive estimates through the
// coordinator must equal the single-node run to the last ulp), and partial
// failures as per-key (index, message) entries so the engine's skip
// machinery sees exactly which positions of a batch died.
//
// Connection preamble (both directions, client first):
//
//	magic "WVDW"  4 bytes
//	version uint16
//
// The preamble doubles as version negotiation: the client announces the
// highest version it speaks, the server replies with min(client, server),
// and both sides then frame at the reply's version. Version 1 is the
// original protocol; version 2 adds a diagnostics extension between the
// frame header and the body (see below) and changes nothing else.
//
// Frame (all integers little-endian):
//
//	length  uint32            payload bytes after this word
//	type    uint8
//	id      uint64            request id, echoed by the response
//	ext     ...               version ≥ 2 only, see below
//	body    ...               per-type, see below
//
// Extension (version ≥ 2). Request frames (BatchGetReq, MetaReq) carry the
// coordinator's trace context so shard-side spans join the query's trace:
//
//	trace   uvarint length + bytes   request ID ("" = untraced)
//
// Response frames (BatchGetResp, MetaResp, Error) echo the shard's serve
// time so the coordinator can split wall time into network and shard work:
//
//	elapsed uvarint                  shard-side nanoseconds
//
// Bodies:
//
//	BatchGetReq:  uvarint key count, then per key a zig-zag varint delta
//	              from the previous key (first delta is from 0)
//	BatchGetResp: uvarint value count, then count raw float64 bits
//	              (failed positions carry zero bits), then uvarint failure
//	              count, then per failure uvarint index + uvarint message
//	              length + message bytes (ascending index order)
//	MetaReq:      empty
//	MetaResp:     uint16 dim count, per dim uvarint name length + name,
//	              uint32 size, float64 bits window lo, hi; uvarint filter
//	              name length + name; uint64 tuple count; uint32 shard
//	              index; uint32 shard count; uint64 nonzero count;
//	              float64 bits coefficient mass
//	Error:        uvarint message length + message bytes — the whole
//	              request failed (no position of the batch may be trusted)

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Frame types of the shard wire protocol.
const (
	FrameBatchGetReq  byte = 1
	FrameBatchGetResp byte = 2
	FrameMetaReq      byte = 3
	FrameMetaResp     byte = 4
	FrameError        byte = 5
)

const (
	wireMagic = "WVDW"

	// MinWireVersion..MaxWireVersion is the negotiable range. Version 1 is
	// the original framing; version 2 adds the diagnostics extension (trace
	// context on requests, shard elapsed time on responses).
	MinWireVersion uint16 = 1
	MaxWireVersion uint16 = 2

	// MaxFramePayload bounds one frame's payload; a peer announcing more is
	// malformed (or hostile) and the connection is dropped.
	MaxFramePayload = 64 << 20
	// MaxBatchKeys bounds the keys of one BatchGet frame.
	MaxBatchKeys = 1 << 22
	// MaxTraceLen bounds the trace-context extension of a v2 request frame;
	// writers truncate to it, readers reject beyond it.
	MaxTraceLen = 128
)

// WriteHandshake sends the connection preamble announcing version.
func WriteHandshake(w io.Writer, version uint16) error {
	if version < MinWireVersion || version > MaxWireVersion {
		return fmt.Errorf("codec: cannot announce wire version %d (speak %d..%d)",
			version, MinWireVersion, MaxWireVersion)
	}
	var buf [6]byte
	copy(buf[:4], wireMagic)
	binary.LittleEndian.PutUint16(buf[4:], version)
	_, err := w.Write(buf[:])
	return err
}

// ReadHandshake reads and validates the peer's preamble, returning the
// version the peer announced. A version beyond MaxWireVersion is not an
// error here: a server clamps it via NegotiateVersion, and a client treats
// a reply above its own announcement as a protocol violation itself.
func ReadHandshake(r io.Reader) (uint16, error) {
	var buf [6]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, fmt.Errorf("codec: reading wire handshake: %w", err)
	}
	if string(buf[:4]) != wireMagic {
		return 0, fmt.Errorf("codec: bad wire magic %q", buf[:4])
	}
	v := binary.LittleEndian.Uint16(buf[4:])
	if v < MinWireVersion {
		return 0, fmt.Errorf("codec: unsupported wire version %d (want ≥ %d)", v, MinWireVersion)
	}
	return v, nil
}

// NegotiateVersion clamps a peer's announced version to what this build
// speaks: the connection runs at min(peer, max), where max is the highest
// version the caller is willing to use (0 means MaxWireVersion).
func NegotiateVersion(peer, max uint16) uint16 {
	if max == 0 || max > MaxWireVersion {
		max = MaxWireVersion
	}
	if peer < max {
		return peer
	}
	return max
}

// WireError is one failed position of a batched retrieval as it travels the
// wire: the position index and the error message (causes do not survive
// serialization; the dist layer rewraps messages in typed errors).
type WireError struct {
	Index int
	Msg   string
}

// WireFrame is one decoded frame: its type, request id, diagnostics
// extension (version ≥ 2 connections only), and undecoded body.
type WireFrame struct {
	Type byte
	ID   uint64
	// Trace is the request ID carried by a v2 request frame ("" when the
	// connection is v1 or the caller sent none).
	Trace string
	// ElapsedNanos is the shard-side serve time echoed by a v2 response
	// frame (0 when the connection is v1).
	ElapsedNanos uint64
	// WireSize is the frame's full encoded size in bytes, length word
	// included — the coordinator's per-shard bytes accounting.
	WireSize int
	body     []byte
}

// frameBuf accumulates a frame payload (type + id + body) before the length
// word is known.
type frameBuf struct {
	b []byte
}

func newFrameBuf(typ byte, id uint64, sizeHint int) *frameBuf {
	f := &frameBuf{b: make([]byte, 0, 9+sizeHint)}
	f.b = append(f.b, typ)
	f.b = binary.LittleEndian.AppendUint64(f.b, id)
	return f
}

func (f *frameBuf) uvarint(v uint64)  { f.b = binary.AppendUvarint(f.b, v) }
func (f *frameBuf) varint(v int64)    { f.b = binary.AppendVarint(f.b, v) }
func (f *frameBuf) uint16(v uint16)   { f.b = binary.LittleEndian.AppendUint16(f.b, v) }
func (f *frameBuf) uint32(v uint32)   { f.b = binary.LittleEndian.AppendUint32(f.b, v) }
func (f *frameBuf) uint64(v uint64)   { f.b = binary.LittleEndian.AppendUint64(f.b, v) }
func (f *frameBuf) float64(v float64) { f.uint64(math.Float64bits(v)) }
func (f *frameBuf) str(s string) {
	f.uvarint(uint64(len(s)))
	f.b = append(f.b, s...)
}

// flush writes length word + payload in one Write call (one syscall on a
// plain conn, and no interleaving hazard for concurrent writers that hold
// the connection exclusively, as the pool guarantees).
func (f *frameBuf) flush(w io.Writer) error {
	if len(f.b) > MaxFramePayload {
		return fmt.Errorf("codec: frame payload %d exceeds limit %d", len(f.b), MaxFramePayload)
	}
	msg := make([]byte, 4+len(f.b))
	binary.LittleEndian.PutUint32(msg, uint32(len(f.b)))
	copy(msg[4:], f.b)
	_, err := w.Write(msg)
	return err
}

// reqExt appends the v2 request extension (trace context) when the
// connection version carries one. Overlong traces are truncated, not
// rejected — the trace is diagnostic, never semantic.
func (f *frameBuf) reqExt(version uint16, trace string) {
	if version < 2 {
		return
	}
	if len(trace) > MaxTraceLen {
		trace = trace[:MaxTraceLen]
	}
	f.str(trace)
}

// respExt appends the v2 response extension (shard elapsed nanoseconds).
func (f *frameBuf) respExt(version uint16, elapsed uint64) {
	if version >= 2 {
		f.uvarint(elapsed)
	}
}

// WriteBatchGetReq sends a batched-retrieval request for keys at wire
// version 1 (no trace context).
func WriteBatchGetReq(w io.Writer, id uint64, keys []int) error {
	return WriteBatchGetReqV(w, 1, id, "", keys)
}

// WriteBatchGetReqV sends a batched-retrieval request for keys, carrying
// trace as the v2 trace-context extension when version supports it.
func WriteBatchGetReqV(w io.Writer, version uint16, id uint64, trace string, keys []int) error {
	if len(keys) > MaxBatchKeys {
		return fmt.Errorf("codec: batch of %d keys exceeds limit %d", len(keys), MaxBatchKeys)
	}
	f := newFrameBuf(FrameBatchGetReq, id, len(keys)*2+len(trace)+8)
	f.reqExt(version, trace)
	f.uvarint(uint64(len(keys)))
	prev := 0
	for _, k := range keys {
		f.varint(int64(k - prev))
		prev = k
	}
	return f.flush(w)
}

// WriteBatchGetResp sends the response to a batched retrieval at wire
// version 1: values[i] answers keys[i] of the request, failed lists the
// positions that did not resolve (their values are ignored) in ascending
// index order.
func WriteBatchGetResp(w io.Writer, id uint64, values []float64, failed []WireError) error {
	return WriteBatchGetRespV(w, 1, id, 0, values, failed)
}

// WriteBatchGetRespV is WriteBatchGetResp carrying the shard's serve time
// as the v2 elapsed extension when version supports it.
func WriteBatchGetRespV(w io.Writer, version uint16, id uint64, elapsed uint64, values []float64, failed []WireError) error {
	f := newFrameBuf(FrameBatchGetResp, id, len(values)*8+16)
	f.respExt(version, elapsed)
	f.uvarint(uint64(len(values)))
	for _, v := range values {
		f.float64(v)
	}
	f.uvarint(uint64(len(failed)))
	for _, fe := range failed {
		f.uvarint(uint64(fe.Index))
		f.str(fe.Msg)
	}
	return f.flush(w)
}

// WriteMetaReq sends a shard-metadata request at wire version 1.
func WriteMetaReq(w io.Writer, id uint64) error {
	return WriteMetaReqV(w, 1, id, "")
}

// WriteMetaReqV sends a shard-metadata request, carrying trace as the v2
// trace-context extension when version supports it.
func WriteMetaReqV(w io.Writer, version uint16, id uint64, trace string) error {
	f := newFrameBuf(FrameMetaReq, id, len(trace)+2)
	f.reqExt(version, trace)
	return f.flush(w)
}

// ShardMeta is a shard server's self-description: the view it partitions
// (schema, filter, tuple count, quantization windows), its place in the
// partition (index of count), and the local aggregates a coordinator sums to
// reconstruct the global view (nonzero coefficients, coefficient mass — the
// Theorem 1 constant K restricted to this shard's keys, accumulated in
// ascending key order so it is deterministic).
type ShardMeta struct {
	Names      []string
	Sizes      []int
	Windows    [][2]float64 // always len(Names) entries; all-zero = unset
	FilterName string
	TupleCount int64
	ShardIndex int
	ShardCount int
	Nonzero    int64
	Mass       float64
}

// WriteMetaResp sends a shard's metadata at wire version 1.
func WriteMetaResp(w io.Writer, id uint64, m *ShardMeta) error {
	return WriteMetaRespV(w, 1, id, 0, m)
}

// WriteMetaRespV is WriteMetaResp carrying the shard's serve time as the
// v2 elapsed extension when version supports it.
func WriteMetaRespV(w io.Writer, version uint16, id uint64, elapsed uint64, m *ShardMeta) error {
	if len(m.Names) != len(m.Sizes) {
		return fmt.Errorf("codec: meta has %d names for %d sizes", len(m.Names), len(m.Sizes))
	}
	if m.Windows != nil && len(m.Windows) != len(m.Names) {
		return fmt.Errorf("codec: meta has %d windows for %d dimensions", len(m.Windows), len(m.Names))
	}
	if len(m.Names) > math.MaxUint16 {
		return fmt.Errorf("codec: too many dimensions")
	}
	f := newFrameBuf(FrameMetaResp, id, 64+len(m.Names)*32)
	f.respExt(version, elapsed)
	f.uint16(uint16(len(m.Names)))
	for i, name := range m.Names {
		f.str(name)
		if m.Sizes[i] < 0 || int64(m.Sizes[i]) > math.MaxUint32 {
			return fmt.Errorf("codec: dimension size %d out of range", m.Sizes[i])
		}
		f.uint32(uint32(m.Sizes[i]))
		var win [2]float64
		if m.Windows != nil {
			win = m.Windows[i]
		}
		f.float64(win[0])
		f.float64(win[1])
	}
	f.str(m.FilterName)
	f.uint64(uint64(m.TupleCount))
	if m.ShardIndex < 0 || m.ShardCount <= 0 || m.ShardIndex >= m.ShardCount {
		return fmt.Errorf("codec: meta shard %d of %d out of range", m.ShardIndex, m.ShardCount)
	}
	f.uint32(uint32(m.ShardIndex))
	f.uint32(uint32(m.ShardCount))
	f.uint64(uint64(m.Nonzero))
	f.float64(m.Mass)
	return f.flush(w)
}

// WriteErrorFrame reports the total failure of a request at wire version 1:
// no position of the batch may be trusted.
func WriteErrorFrame(w io.Writer, id uint64, msg string) error {
	return WriteErrorFrameV(w, 1, id, 0, msg)
}

// WriteErrorFrameV is WriteErrorFrame carrying the shard's serve time as
// the v2 elapsed extension when version supports it.
func WriteErrorFrameV(w io.Writer, version uint16, id uint64, elapsed uint64, msg string) error {
	f := newFrameBuf(FrameError, id, len(msg)+8)
	f.respExt(version, elapsed)
	f.str(msg)
	return f.flush(w)
}

// ReadFrame reads one frame at wire version 1.
func ReadFrame(r io.Reader) (*WireFrame, error) {
	return ReadFrameVersion(r, 1)
}

// ReadFrameVersion reads one frame at the connection's negotiated version.
// It validates the length word against MaxFramePayload before allocating,
// allocates a large payload only as its bytes arrive (readPayload), and
// strips the v2 diagnostics extension into the frame's Trace / ElapsedNanos
// fields; body decoding happens in the typed accessors so a reader loop can
// dispatch on Type first.
func ReadFrameVersion(r io.Reader, version uint16) (*WireFrame, error) {
	var head [4]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(head[:])
	if n < 9 {
		return nil, fmt.Errorf("codec: frame payload %d shorter than header", n)
	}
	if n > MaxFramePayload {
		return nil, fmt.Errorf("codec: frame payload %d exceeds limit %d", n, MaxFramePayload)
	}
	payload, err := readPayload(r, int(n))
	if err != nil {
		return nil, fmt.Errorf("codec: reading frame payload: %w", err)
	}
	f := &WireFrame{
		Type:     payload[0],
		ID:       binary.LittleEndian.Uint64(payload[1:9]),
		WireSize: 4 + int(n),
		body:     payload[9:],
	}
	if version >= 2 {
		wr := &wireReader{b: f.body}
		switch f.Type {
		case FrameBatchGetReq, FrameMetaReq:
			trace, err := wr.str(MaxTraceLen)
			if err != nil {
				return nil, fmt.Errorf("codec: frame trace extension: %w", err)
			}
			f.Trace = trace
		case FrameBatchGetResp, FrameMetaResp, FrameError:
			elapsed, err := wr.uvarint()
			if err != nil {
				return nil, fmt.Errorf("codec: frame elapsed extension: %w", err)
			}
			f.ElapsedNanos = elapsed
		default:
			// Unknown type: leave the body whole so the peer's error reply
			// ("unknown frame type") is still possible.
		}
		f.body = wr.b
	}
	return f, nil
}

// smallFramePayload is the largest payload read into one allocation of its
// announced length.
const smallFramePayload = 64 << 10

// readPayload reads an n-byte payload. Beyond smallFramePayload the buffer
// starts at that size and doubles (capped at n) only as the bytes arrive, so
// a peer that announces MaxFramePayload and sends little costs about twice
// what it sent, not 64 MiB.
func readPayload(r io.Reader, n int) ([]byte, error) {
	payload := make([]byte, min(n, smallFramePayload))
	for have := 0; ; {
		m, err := io.ReadFull(r, payload[have:])
		have += m
		if err == io.EOF && have > 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
		if have == n {
			return payload, nil
		}
		grown := make([]byte, min(2*len(payload), n))
		copy(grown, payload)
		payload = grown
	}
}

// wireReader decodes a frame body sequentially.
type wireReader struct {
	b []byte
}

func (r *wireReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, fmt.Errorf("codec: truncated uvarint in frame body")
	}
	r.b = r.b[n:]
	return v, nil
}

func (r *wireReader) varint() (int64, error) {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		return 0, fmt.Errorf("codec: truncated varint in frame body")
	}
	r.b = r.b[n:]
	return v, nil
}

func (r *wireReader) uint16() (uint16, error) {
	if len(r.b) < 2 {
		return 0, fmt.Errorf("codec: truncated frame body")
	}
	v := binary.LittleEndian.Uint16(r.b)
	r.b = r.b[2:]
	return v, nil
}

func (r *wireReader) uint32() (uint32, error) {
	if len(r.b) < 4 {
		return 0, fmt.Errorf("codec: truncated frame body")
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v, nil
}

func (r *wireReader) uint64() (uint64, error) {
	if len(r.b) < 8 {
		return 0, fmt.Errorf("codec: truncated frame body")
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v, nil
}

func (r *wireReader) float64() (float64, error) {
	bits, err := r.uint64()
	return math.Float64frombits(bits), err
}

func (r *wireReader) str(limit int) (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(limit) || n > uint64(len(r.b)) {
		return "", fmt.Errorf("codec: string length %d exceeds body", n)
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s, nil
}

// done rejects trailing garbage after a fully decoded body.
func (r *wireReader) done() error {
	if len(r.b) != 0 {
		return fmt.Errorf("codec: %d trailing bytes in frame body", len(r.b))
	}
	return nil
}

// BatchGetReq decodes a FrameBatchGetReq body.
func (f *WireFrame) BatchGetReq() ([]int, error) {
	if f.Type != FrameBatchGetReq {
		return nil, fmt.Errorf("codec: frame type %d is not BatchGetReq", f.Type)
	}
	r := &wireReader{b: f.body}
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > MaxBatchKeys {
		return nil, fmt.Errorf("codec: batch of %d keys exceeds limit %d", n, MaxBatchKeys)
	}
	keys := make([]int, n)
	prev := int64(0)
	for i := range keys {
		d, err := r.varint()
		if err != nil {
			return nil, err
		}
		prev += d
		if prev < 0 {
			return nil, fmt.Errorf("codec: negative coefficient key %d in batch", prev)
		}
		keys[i] = int(prev)
	}
	return keys, r.done()
}

// BatchGetResp decodes a FrameBatchGetResp body. wantKeys is the request's
// key count; a response of any other size is a protocol violation.
func (f *WireFrame) BatchGetResp(wantKeys int) ([]float64, []WireError, error) {
	if f.Type != FrameBatchGetResp {
		return nil, nil, fmt.Errorf("codec: frame type %d is not BatchGetResp", f.Type)
	}
	r := &wireReader{b: f.body}
	n, err := r.uvarint()
	if err != nil {
		return nil, nil, err
	}
	if int64(n) != int64(wantKeys) {
		return nil, nil, fmt.Errorf("codec: response carries %d values for %d keys", n, wantKeys)
	}
	values := make([]float64, n)
	for i := range values {
		if values[i], err = r.float64(); err != nil {
			return nil, nil, err
		}
	}
	fn, err := r.uvarint()
	if err != nil {
		return nil, nil, err
	}
	if fn > n {
		return nil, nil, fmt.Errorf("codec: %d failures for %d values", fn, n)
	}
	failed := make([]WireError, fn)
	prev := -1
	for i := range failed {
		idx, err := r.uvarint()
		if err != nil {
			return nil, nil, err
		}
		if int64(idx) >= int64(n) || int(idx) <= prev {
			return nil, nil, fmt.Errorf("codec: failure index %d out of order or range", idx)
		}
		prev = int(idx)
		msg, err := r.str(1 << 16)
		if err != nil {
			return nil, nil, err
		}
		failed[i] = WireError{Index: int(idx), Msg: msg}
	}
	return values, failed, r.done()
}

// Meta decodes a FrameMetaResp body.
func (f *WireFrame) Meta() (*ShardMeta, error) {
	if f.Type != FrameMetaResp {
		return nil, fmt.Errorf("codec: frame type %d is not MetaResp", f.Type)
	}
	r := &wireReader{b: f.body}
	dims, err := r.uint16()
	if err != nil {
		return nil, err
	}
	if dims == 0 || dims > 64 {
		return nil, fmt.Errorf("codec: implausible dimension count %d", dims)
	}
	m := &ShardMeta{
		Names:   make([]string, dims),
		Sizes:   make([]int, dims),
		Windows: make([][2]float64, dims),
	}
	for i := 0; i < int(dims); i++ {
		if m.Names[i], err = r.str(1 << 12); err != nil {
			return nil, err
		}
		sz, err := r.uint32()
		if err != nil {
			return nil, err
		}
		m.Sizes[i] = int(sz)
		if m.Windows[i][0], err = r.float64(); err != nil {
			return nil, err
		}
		if m.Windows[i][1], err = r.float64(); err != nil {
			return nil, err
		}
	}
	if m.FilterName, err = r.str(255); err != nil {
		return nil, err
	}
	tc, err := r.uint64()
	if err != nil {
		return nil, err
	}
	m.TupleCount = int64(tc)
	si, err := r.uint32()
	if err != nil {
		return nil, err
	}
	sc, err := r.uint32()
	if err != nil {
		return nil, err
	}
	m.ShardIndex, m.ShardCount = int(si), int(sc)
	if m.ShardCount <= 0 || m.ShardIndex < 0 || m.ShardIndex >= m.ShardCount {
		return nil, fmt.Errorf("codec: meta shard %d of %d out of range", m.ShardIndex, m.ShardCount)
	}
	nz, err := r.uint64()
	if err != nil {
		return nil, err
	}
	m.Nonzero = int64(nz)
	if m.Mass, err = r.float64(); err != nil {
		return nil, err
	}
	return m, r.done()
}

// ErrorMsg decodes a FrameError body.
func (f *WireFrame) ErrorMsg() (string, error) {
	if f.Type != FrameError {
		return "", fmt.Errorf("codec: frame type %d is not Error", f.Type)
	}
	r := &wireReader{b: f.body}
	msg, err := r.str(1 << 16)
	if err != nil {
		return "", err
	}
	return msg, r.done()
}
