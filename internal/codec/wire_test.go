package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

func TestWireHandshakeRoundTrip(t *testing.T) {
	for v := MinWireVersion; v <= MaxWireVersion; v++ {
		var buf bytes.Buffer
		if err := WriteHandshake(&buf, v); err != nil {
			t.Fatal(err)
		}
		got, err := ReadHandshake(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Fatalf("announced %d, read %d", v, got)
		}
	}
	// Versions outside the speakable range cannot be announced.
	var buf bytes.Buffer
	if err := WriteHandshake(&buf, 0); err == nil {
		t.Fatal("version 0 announced")
	}
	if err := WriteHandshake(&buf, MaxWireVersion+1); err == nil {
		t.Fatal("future version announced")
	}
	// Wrong magic.
	if _, err := ReadHandshake(strings.NewReader("XXXX\x01\x00")); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Version 0 is malformed.
	if _, err := ReadHandshake(strings.NewReader(wireMagic + "\x00\x00")); err == nil {
		t.Fatal("version 0 accepted")
	}
	// A future version is readable (negotiation clamps it), not an error.
	if v, err := ReadHandshake(strings.NewReader(wireMagic + "\x7f\x00")); err != nil || v != 0x7f {
		t.Fatalf("future version: v=%d err=%v", v, err)
	}
	// Truncation.
	if _, err := ReadHandshake(strings.NewReader("WV")); err == nil {
		t.Fatal("truncated handshake accepted")
	}
}

func TestNegotiateVersion(t *testing.T) {
	cases := []struct{ peer, max, want uint16 }{
		{1, 0, 1},               // v1 peer clamps a v2 server down
		{2, 0, 2},               // both sides current
		{99, 0, MaxWireVersion}, // future peer clamps to what we speak
		{2, 1, 1},               // locally capped (no-trace mode)
		{1, 1, 1},
		{99, 7, MaxWireVersion}, // local cap beyond our ceiling is clamped too
	}
	for _, c := range cases {
		if got := NegotiateVersion(c.peer, c.max); got != c.want {
			t.Fatalf("NegotiateVersion(%d, %d) = %d, want %d", c.peer, c.max, got, c.want)
		}
	}
}

func TestWireV2Extensions(t *testing.T) {
	// Request frames carry the trace; response frames carry elapsed time.
	keys := []int{3, 1, 4, 1, 5}
	var buf bytes.Buffer
	if err := WriteBatchGetReqV(&buf, 2, 11, "req-abc123", keys); err != nil {
		t.Fatal(err)
	}
	wire := buf.Len()
	f, err := ReadFrameVersion(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if f.Trace != "req-abc123" || f.ElapsedNanos != 0 {
		t.Fatalf("req ext mangled: trace=%q elapsed=%d", f.Trace, f.ElapsedNanos)
	}
	if f.WireSize != wire {
		t.Fatalf("WireSize=%d, wrote %d bytes", f.WireSize, wire)
	}
	got, err := f.BatchGetReq()
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if got[i] != keys[i] {
			t.Fatalf("key %d: got %d want %d", i, got[i], keys[i])
		}
	}

	buf.Reset()
	vals := []float64{1.5, math.Pi}
	if err := WriteBatchGetRespV(&buf, 2, 11, 987654321, vals, []WireError{{Index: 1, Msg: "boom"}}); err != nil {
		t.Fatal(err)
	}
	f, err = ReadFrameVersion(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if f.ElapsedNanos != 987654321 || f.Trace != "" {
		t.Fatalf("resp ext mangled: trace=%q elapsed=%d", f.Trace, f.ElapsedNanos)
	}
	gv, gf, err := f.BatchGetResp(len(vals))
	if err != nil || gv[0] != 1.5 || len(gf) != 1 || gf[0].Msg != "boom" {
		t.Fatalf("v2 resp body mangled: vals=%v failed=%v err=%v", gv, gf, err)
	}

	// Meta and Error frames too.
	buf.Reset()
	if err := WriteMetaReqV(&buf, 2, 12, "req-meta"); err != nil {
		t.Fatal(err)
	}
	if f, err = ReadFrameVersion(&buf, 2); err != nil || f.Trace != "req-meta" {
		t.Fatalf("meta req ext: trace=%q err=%v", f.Trace, err)
	}
	buf.Reset()
	if err := WriteErrorFrameV(&buf, 2, 13, 42, "down"); err != nil {
		t.Fatal(err)
	}
	f, err = ReadFrameVersion(&buf, 2)
	if err != nil || f.ElapsedNanos != 42 {
		t.Fatalf("error ext: elapsed=%d err=%v", f.ElapsedNanos, err)
	}
	if msg, err := f.ErrorMsg(); err != nil || msg != "down" {
		t.Fatalf("error msg: %q err=%v", msg, err)
	}

	// An overlong trace is truncated, not rejected.
	buf.Reset()
	long := strings.Repeat("x", MaxTraceLen+50)
	if err := WriteBatchGetReqV(&buf, 2, 14, long, []int{1}); err != nil {
		t.Fatal(err)
	}
	if f, err = ReadFrameVersion(&buf, 2); err != nil || len(f.Trace) != MaxTraceLen {
		t.Fatalf("overlong trace: len=%d err=%v", len(f.Trace), err)
	}
}

func TestWireV1FramesUnchangedByV2Code(t *testing.T) {
	// The v1 writers must produce byte-identical frames to the versioned
	// writers at version 1 — old peers see exactly the old protocol.
	var a, b bytes.Buffer
	if err := WriteBatchGetReq(&a, 5, []int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := WriteBatchGetReqV(&b, 1, 5, "ignored-at-v1", []int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("v1 framing changed by versioned writer")
	}
	f, err := ReadFrame(&a)
	if err != nil {
		t.Fatal(err)
	}
	if f.Trace != "" || f.ElapsedNanos != 0 {
		t.Fatalf("v1 frame grew extensions: trace=%q elapsed=%d", f.Trace, f.ElapsedNanos)
	}
}

func TestWireBatchGetReqRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := [][]int{
		{},
		{0},
		{5, 5, 5},                  // repeats
		{100, 7, 100000, 3, 2, 1},  // arbitrary order
		{0, 1, 2, 3, 4, 5, 6, 7},   // sequential (one byte per delta)
		{1 << 40, 0, 1<<40 + 1024}, // large keys
	}
	big := make([]int, 5000)
	for i := range big {
		big[i] = rng.Intn(1 << 26)
	}
	cases = append(cases, big)
	for ci, keys := range cases {
		var buf bytes.Buffer
		if err := WriteBatchGetReq(&buf, uint64(ci)+7, keys); err != nil {
			t.Fatal(err)
		}
		f, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if f.Type != FrameBatchGetReq || f.ID != uint64(ci)+7 {
			t.Fatalf("case %d: frame type=%d id=%d", ci, f.Type, f.ID)
		}
		got, err := f.BatchGetReq()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(keys) {
			t.Fatalf("case %d: %d keys back for %d sent", ci, len(got), len(keys))
		}
		for i := range keys {
			if got[i] != keys[i] {
				t.Fatalf("case %d key %d: got %d want %d", ci, i, got[i], keys[i])
			}
		}
	}
}

func TestWireBatchGetReqCompactness(t *testing.T) {
	// Sorted clustered keys must cost far less than 8 bytes per key — the
	// point of the delta-varint representation.
	keys := make([]int, 4096)
	for i := range keys {
		keys[i] = 1_000_000 + i*3
	}
	var buf bytes.Buffer
	if err := WriteBatchGetReq(&buf, 1, keys); err != nil {
		t.Fatal(err)
	}
	perKey := float64(buf.Len()) / float64(len(keys))
	if perKey > 2 {
		t.Fatalf("sorted clustered batch costs %.2f bytes/key, want ≤ 2", perKey)
	}
}

func TestWireBatchGetRespRoundTrip(t *testing.T) {
	values := []float64{1.5, 0, math.Pi, -42.25, math.Inf(1), math.NaN()}
	failed := []WireError{{Index: 1, Msg: "injected fault"}, {Index: 4, Msg: "shard overloaded"}}
	var buf bytes.Buffer
	if err := WriteBatchGetResp(&buf, 99, values, failed); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	gv, gf, err := f.BatchGetResp(len(values))
	if err != nil {
		t.Fatal(err)
	}
	for i := range values {
		if math.Float64bits(gv[i]) != math.Float64bits(values[i]) {
			t.Fatalf("value %d: bits differ (%v vs %v)", i, gv[i], values[i])
		}
	}
	if len(gf) != 2 || gf[0] != failed[0] || gf[1] != failed[1] {
		t.Fatalf("failures mangled: %+v", gf)
	}
	// Size mismatch with the request is a protocol violation.
	var buf2 bytes.Buffer
	if err := WriteBatchGetResp(&buf2, 99, values, nil); err != nil {
		t.Fatal(err)
	}
	f2, err := ReadFrame(&buf2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := f2.BatchGetResp(len(values) + 1); err == nil {
		t.Fatal("value-count mismatch accepted")
	}
}

func TestWireMetaRoundTrip(t *testing.T) {
	m := &ShardMeta{
		Names:      []string{"lat", "lon", "month"},
		Sizes:      []int{64, 128, 16},
		Windows:    [][2]float64{{-90, 90}, {-180, 180}, {0, 0}},
		FilterName: "Db4",
		TupleCount: 123456,
		ShardIndex: 2,
		ShardCount: 4,
		Nonzero:    9999,
		Mass:       31337.25,
	}
	var buf bytes.Buffer
	if err := WriteMetaResp(&buf, 5, m); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.Meta()
	if err != nil {
		t.Fatal(err)
	}
	if got.FilterName != m.FilterName || got.TupleCount != m.TupleCount ||
		got.ShardIndex != m.ShardIndex || got.ShardCount != m.ShardCount ||
		got.Nonzero != m.Nonzero || got.Mass != m.Mass {
		t.Fatalf("meta mangled: %+v", got)
	}
	for i := range m.Names {
		if got.Names[i] != m.Names[i] || got.Sizes[i] != m.Sizes[i] || got.Windows[i] != m.Windows[i] {
			t.Fatalf("dim %d mangled: %+v", i, got)
		}
	}
}

func TestWireErrorFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteErrorFrame(&buf, 77, "store on fire"); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != FrameError || f.ID != 77 {
		t.Fatalf("frame type=%d id=%d", f.Type, f.ID)
	}
	msg, err := f.ErrorMsg()
	if err != nil || msg != "store on fire" {
		t.Fatalf("msg=%q err=%v", msg, err)
	}
}

func TestWireMalformedFrames(t *testing.T) {
	// Oversized length word is rejected before allocation.
	var head [4]byte
	binary.LittleEndian.PutUint32(head[:], MaxFramePayload+1)
	if _, err := ReadFrame(bytes.NewReader(head[:])); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// Length shorter than the frame header.
	binary.LittleEndian.PutUint32(head[:], 4)
	if _, err := ReadFrame(bytes.NewReader(append(head[:], 0, 0, 0, 0))); err == nil {
		t.Fatal("undersized frame accepted")
	}
	// Truncated payload.
	var buf bytes.Buffer
	if err := WriteBatchGetReq(&buf, 1, []int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadFrame(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated payload accepted")
	}
	// Body decoded as the wrong type.
	var buf2 bytes.Buffer
	if err := WriteBatchGetReq(&buf2, 1, []int{1}); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(&buf2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Meta(); err == nil {
		t.Fatal("BatchGetReq decoded as Meta")
	}
	// Trailing garbage inside a frame body.
	var buf3 bytes.Buffer
	if err := WriteErrorFrame(&buf3, 1, "x"); err != nil {
		t.Fatal(err)
	}
	raw := buf3.Bytes()
	binary.LittleEndian.PutUint32(raw, uint32(len(raw)-4+2))
	raw = append(raw, 0, 0)
	f3, err := ReadFrame(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f3.ErrorMsg(); err == nil {
		t.Fatal("trailing garbage in body accepted")
	}
	// Negative key via delta underflow.
	payload := []byte{FrameBatchGetReq}
	payload = binary.LittleEndian.AppendUint64(payload, 1)
	payload = binary.AppendUvarint(payload, 1)
	payload = binary.AppendVarint(payload, -5)
	var buf4 bytes.Buffer
	_ = binary.Write(&buf4, binary.LittleEndian, uint32(len(payload)))
	buf4.Write(payload)
	f4, err := ReadFrame(&buf4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f4.BatchGetReq(); err == nil {
		t.Fatal("negative key accepted")
	}
}

// TestWireAnnouncedLengthIsNotAllocatedUpFront: a peer that announces the
// largest frame allowed, sends ten bytes of it and hangs up costs the reader
// what arrived (its first 64 KiB buffer), not the 64 MiB it announced, and
// the read fails as a truncated frame.
func TestWireAnnouncedLengthIsNotAllocatedUpFront(t *testing.T) {
	msg := binary.LittleEndian.AppendUint32(nil, MaxFramePayload)
	msg = append(msg, make([]byte, 10)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrameVersion(bytes.NewReader(msg), MaxWireVersion)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("read of a truncated frame: %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("a 10-byte frame announced at %d bytes allocated %d", MaxFramePayload, got)
	}
}

// TestWireLargeFrameGrowsToItsLength: a payload far over the first buffer
// arrives whole through the doubling reads — including one cut at a buffer
// boundary, which is still a truncated frame.
func TestWireLargeFrameGrowsToItsLength(t *testing.T) {
	values := make([]float64, 100_000) // ≈ 800 KB: 64 KiB doubled four times, then capped
	for i := range values {
		values[i] = float64(i) * 0.5
	}
	var buf bytes.Buffer
	if err := WriteBatchGetResp(&buf, 3, values, nil); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	f, err := ReadFrame(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := f.BatchGetResp(len(values))
	if err != nil {
		t.Fatal(err)
	}
	for i := range values {
		if got[i] != values[i] {
			t.Fatalf("value %d: %v, want %v", i, got[i], values[i])
		}
	}
	cut := frame[:4+smallFramePayload]
	if _, err := ReadFrame(bytes.NewReader(cut)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("frame cut after its first buffer: %v, want io.ErrUnexpectedEOF", err)
	}
}
