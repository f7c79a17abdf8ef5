package codec

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
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
	if err := WriteHandshake(&buf, 1); err == nil {
		t.Fatal("retired version 1 announced")
	}
	if err := WriteHandshake(&buf, MaxWireVersion+1); err == nil {
		t.Fatal("future version announced")
	}
	// Wrong magic.
	if _, err := ReadHandshake(strings.NewReader("XXXX\x01\x00")); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Version 0 is malformed, and version 1 (frames without the
	// diagnostics extension) is retired: both are refused, naming the
	// version.
	for _, v := range []string{"\x00\x00", "\x01\x00"} {
		_, err := ReadHandshake(strings.NewReader(wireMagic + v))
		if want := fmt.Sprintf("wire version %d", v[0]); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("announce %q: %v, want an error naming %q", v, err, want)
		}
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
	cases := []struct{ peer, want uint16 }{
		{2, 2},              // both sides current
		{3, MaxWireVersion}, // a later peer clamps to what we speak
		{99, MaxWireVersion},
	}
	for _, c := range cases {
		if got := NegotiateVersion(c.peer); got != c.want {
			t.Fatalf("NegotiateVersion(%d) = %d, want %d", c.peer, got, c.want)
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

// goldenFrames is one frame of each type at MaxWireVersion, as hex: the
// writers must keep producing these bytes, which shards and coordinators
// of earlier builds read and write.
var goldenFrames = []struct {
	name  string
	write func(io.Writer) error
	hex   string
}{
	{"BatchGetReq", func(w io.Writer) error {
		return WriteBatchGetReqV(w, MaxWireVersion, 7, "req-000001", []int{3, 1, 4, 1, 5, 1 << 40})
	}, "200000000107000000000000000a7265712d303030303031060603060508f6ffffffff3f"},
	{"BatchGetResp", func(w io.Writer) error {
		return WriteBatchGetRespV(w, MaxWireVersion, 7, 42, []float64{1.5, math.Pi, math.NaN()}, []WireError{{Index: 1, Msg: "boom"}})
	}, "2a0000000207000000000000002a03000000000000f83f182d4454fb210940010000000000f87f010104626f6f6d"},
	{"MetaReq", func(w io.Writer) error {
		return WriteMetaReqV(w, MaxWireVersion, 8, "req-meta")
	}, "12000000030800000000000000087265712d6d657461"},
	{"MetaResp", func(w io.Writer) error {
		return WriteMetaRespV(w, MaxWireVersion, 8, 9, goldenMeta)
	}, "60000000040800000000000000090200036c61744000000000000000008056c00000000000805640036c6f6e80000000000000000000000000000000000000000344623440e201000000000001000000040000000f2700000000000000000000509ade40"},
	{"Error", func(w io.Writer) error {
		return WriteErrorFrameV(w, MaxWireVersion, 9, 10, "store on fire")
	}, "180000000509000000000000000a0d73746f7265206f6e2066697265"},
}

var goldenMeta = &ShardMeta{
	Names: []string{"lat", "lon"}, Sizes: []int{64, 128},
	Windows: [][2]float64{{-90, 90}, {0, 0}}, FilterName: "Db4",
	TupleCount: 123456, ShardIndex: 1, ShardCount: 4, Nonzero: 9999, Mass: 31337.25,
}

func TestWireFramesMatchGolden(t *testing.T) {
	for _, g := range goldenFrames {
		var buf bytes.Buffer
		if err := g.write(&buf); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(buf.Bytes()); got != g.hex {
			t.Fatalf("%s frame:\n got %s\nwant %s", g.name, got, g.hex)
		}
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
		if err := WriteBatchGetReqV(&buf, MaxWireVersion, uint64(ci)+7, "", keys); err != nil {
			t.Fatal(err)
		}
		f, err := ReadFrameVersion(&buf, MaxWireVersion)
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
	if err := WriteBatchGetReqV(&buf, MaxWireVersion, 1, "", keys); err != nil {
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
	if err := WriteBatchGetRespV(&buf, MaxWireVersion, 99, 0, values, failed); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrameVersion(&buf, MaxWireVersion)
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
	if err := WriteBatchGetRespV(&buf2, MaxWireVersion, 99, 0, values, nil); err != nil {
		t.Fatal(err)
	}
	f2, err := ReadFrameVersion(&buf2, MaxWireVersion)
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
	if err := WriteMetaRespV(&buf, MaxWireVersion, 5, 0, m); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrameVersion(&buf, MaxWireVersion)
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
	if err := WriteErrorFrameV(&buf, MaxWireVersion, 77, 0, "store on fire"); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrameVersion(&buf, MaxWireVersion)
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
	if _, err := ReadFrameVersion(bytes.NewReader(head[:]), MaxWireVersion); err == nil {
		t.Fatal("oversized frame accepted")
	}
	// Length shorter than the frame header.
	binary.LittleEndian.PutUint32(head[:], 4)
	if _, err := ReadFrameVersion(bytes.NewReader(append(head[:], 0, 0, 0, 0)), MaxWireVersion); err == nil {
		t.Fatal("undersized frame accepted")
	}
	// Truncated payload.
	var buf bytes.Buffer
	if err := WriteBatchGetReqV(&buf, MaxWireVersion, 1, "", []int{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadFrameVersion(bytes.NewReader(trunc), MaxWireVersion); err == nil {
		t.Fatal("truncated payload accepted")
	}
	// Body decoded as the wrong type.
	var buf2 bytes.Buffer
	if err := WriteBatchGetReqV(&buf2, MaxWireVersion, 1, "", []int{1}); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrameVersion(&buf2, MaxWireVersion)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Meta(); err == nil {
		t.Fatal("BatchGetReq decoded as Meta")
	}
	// Trailing garbage inside a frame body.
	var buf3 bytes.Buffer
	if err := WriteErrorFrameV(&buf3, MaxWireVersion, 1, 0, "x"); err != nil {
		t.Fatal(err)
	}
	raw := buf3.Bytes()
	binary.LittleEndian.PutUint32(raw, uint32(len(raw)-4+2))
	raw = append(raw, 0, 0)
	f3, err := ReadFrameVersion(bytes.NewReader(raw), MaxWireVersion)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f3.ErrorMsg(); err == nil {
		t.Fatal("trailing garbage in body accepted")
	}
	// Negative key via delta underflow.
	payload := []byte{FrameBatchGetReq}
	payload = binary.LittleEndian.AppendUint64(payload, 1)
	payload = append(payload, 0) // empty trace
	payload = binary.AppendUvarint(payload, 1)
	payload = binary.AppendVarint(payload, -5)
	var buf4 bytes.Buffer
	_ = binary.Write(&buf4, binary.LittleEndian, uint32(len(payload)))
	buf4.Write(payload)
	f4, err := ReadFrameVersion(&buf4, MaxWireVersion)
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
// the read fails as a truncated frame. Likewise a whole frame whose body
// announces more keys, values or failures than its bytes can hold fails to
// decode without sizing anything by the announced count: the 18-byte
// request once cost a 32 MiB key slice.
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

	for _, c := range []struct {
		name   string
		frame  []byte
		decode func(*WireFrame) error
	}{
		{"request of 2^22 keys", craftedFrame(FrameBatchGetReq, 0, MaxBatchKeys), func(f *WireFrame) error {
			_, err := f.BatchGetReq()
			return err
		}},
		{"response of 2^22 values", craftedFrame(FrameBatchGetResp, 0, MaxBatchKeys), func(f *WireFrame) error {
			_, _, err := f.BatchGetResp(MaxBatchKeys)
			return err
		}},
	} {
		runtime.ReadMemStats(&before)
		f, err := ReadFrameVersion(bytes.NewReader(c.frame), MaxWireVersion)
		if err == nil {
			err = c.decode(f)
		}
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: a %d-byte frame decoded", c.name, len(c.frame))
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<10 {
			t.Fatalf("%s: a %d-byte frame allocated %d bytes before failing (%v)", c.name, len(c.frame), got, err)
		}
	}
}

// craftedFrame is a frame of type typ, id 1, whose extension and body are
// the given uvarints — counts that announce more entries than follow them.
func craftedFrame(typ byte, uvarints ...uint64) []byte {
	payload := binary.LittleEndian.AppendUint64([]byte{typ}, 1)
	for _, v := range uvarints {
		payload = binary.AppendUvarint(payload, v)
	}
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(payload))), payload...)
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
	if err := WriteBatchGetRespV(&buf, MaxWireVersion, 3, 0, values, nil); err != nil {
		t.Fatal(err)
	}
	frame := buf.Bytes()
	f, err := ReadFrameVersion(bytes.NewReader(frame), MaxWireVersion)
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
	if _, err := ReadFrameVersion(bytes.NewReader(cut), MaxWireVersion); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("frame cut after its first buffer: %v, want io.ErrUnexpectedEOF", err)
	}
}
