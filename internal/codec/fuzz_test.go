package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/storage"
	"repro/internal/storage/layout"
	"repro/internal/storetest"
)

// FuzzRead feeds arbitrary byte streams to the view-file reader: it must
// never panic, may allocate no more than readAllocBound of the input's
// length (a size the bytes cannot hold sizes nothing), and anything it
// accepts must write back as a .wvls file that reads again to the same
// coefficients, bit for bit. Seeds are sparse and dense .wvls files, an
// empty one, and mutations of them.
func FuzzRead(f *testing.F) {
	schema := dataset.MustSchema([]string{"x", "y"}, []int{8, 8})
	store := storetest.NewMap()
	store.Add(3, 1.25)
	store.Add(17, -2.5)
	dense := storetest.NewMap()
	for k := 0; k < 48; k++ {
		dense.Add(k, float64(k)-7.5)
	}
	f.Add([]byte{})
	f.Add([]byte(layout.Magic))
	for _, st := range []storage.Enumerable{store, dense, storetest.NewMap()} {
		var buf bytes.Buffer
		if err := writeView(&buf, schema, "Db4", 42, st, [][2]float64{{0, 1}, {-3, 3}}); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		c := append([]byte(nil), buf.Bytes()...)
		c[len(c)-6] ^= 0x55
		f.Add(c)
		if st == store {
			f.Add(buf.Bytes()[:len(buf.Bytes())/2])
		}
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		snap, err := Read(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, readAllocBound(len(data)); got > bound {
			t.Fatalf("reading %d bytes allocated %d bytes, bound %d", len(data), got, bound)
		}
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := writeView(&out, snap.Schema, snap.FilterName, snap.TupleCount, snap.Store(), snap.Windows); err != nil {
			t.Fatalf("re-serialization failed: %v", err)
		}
		resnap, err := Read(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		if len(resnap.Keys) != len(snap.Keys) {
			t.Fatalf("round trip changed the coefficient count: %d, then %d", len(snap.Keys), len(resnap.Keys))
		}
		for i := range snap.Keys {
			if resnap.Keys[i] != snap.Keys[i] || math.Float64bits(resnap.Values[i]) != math.Float64bits(snap.Values[i]) {
				t.Fatalf("round trip changed coefficient %d: (%d, %v), then (%d, %v)",
					i, snap.Keys[i], snap.Values[i], resnap.Keys[i], resnap.Values[i])
			}
		}
	})
}

// readAllocBound is what Read may allocate reading n bytes: the snapshot's
// 16 bytes a coefficient, where every coefficient costs the input at least
// one byte of its own (a dense cell 4 or 8, a sparse key at least 7), plus a fixed allowance for the reader's buffer and the
// decoded header.
func readAllocBound(n int) uint64 { return 16*uint64(n) + 64<<10 }

// FuzzWireFrame feeds arbitrary bytes to the shard wire reader and decodes
// whatever frame it accepts with every typed accessor: nothing may panic,
// the accessors together may allocate no more than decodeAllocBound of the
// input's length (a count the body cannot hold sizes nothing), and a body
// an accessor accepts must write back and read again to the same values.
// Seeds are the golden frame of each type, the malformed frames of
// TestWireMalformedFrames and frames that announce more than they carry.
func FuzzWireFrame(f *testing.F) {
	for _, g := range goldenFrames {
		var buf bytes.Buffer
		if err := g.write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(binary.LittleEndian.AppendUint32(nil, MaxFramePayload+1))
	f.Add(binary.LittleEndian.AppendUint32(nil, MaxFramePayload))
	f.Add([]byte{4, 0, 0, 0, 0, 0, 0, 0})
	f.Add(craftedFrame(FrameBatchGetReq, 0, 1, zigzag(-5)))
	f.Add(craftedFrame(FrameBatchGetReq, 0, MaxBatchKeys))
	f.Add(craftedFrame(FrameBatchGetReq, MaxTraceLen+1))
	f.Add(craftedFrame(FrameBatchGetResp, 0, MaxBatchKeys))
	f.Add(craftedFrame(9, 0))
	f.Add(craftedFrame(FrameMetaResp, 0, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrameVersion(bytes.NewReader(data), MaxWireVersion)
		if err != nil {
			return
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		keys, keysErr := fr.BatchGetReq()
		values, failed, valuesErr := []float64(nil), []WireError(nil), errNoValueCount
		if n, k := binary.Uvarint(fr.body); k > 0 && n <= MaxBatchKeys {
			values, failed, valuesErr = fr.BatchGetResp(int(n))
		}
		m, metaErr := fr.Meta()
		msg, msgErr := fr.ErrorMsg()
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, decodeAllocBound(len(data)); got > bound {
			t.Fatalf("decoding a %d-byte frame allocated %d bytes, bound %d", len(data), got, bound)
		}

		var again bytes.Buffer
		if keysErr == nil {
			if err := WriteBatchGetReqV(&again, MaxWireVersion, fr.ID, fr.Trace, keys); err != nil {
				t.Fatalf("rewriting an accepted request: %v", err)
			}
			back, err := readAgain(t, &again, fr).BatchGetReq()
			if err != nil || len(back) != len(keys) {
				t.Fatalf("request round trip: %d keys, then %d (%v)", len(keys), len(back), err)
			}
			for i := range keys {
				if back[i] != keys[i] {
					t.Fatalf("request round trip: key %d is %d, then %d", i, keys[i], back[i])
				}
			}
		}
		if valuesErr == nil {
			if err := WriteBatchGetRespV(&again, MaxWireVersion, fr.ID, fr.ElapsedNanos, values, failed); err != nil {
				t.Fatalf("rewriting an accepted response: %v", err)
			}
			bv, bf, err := readAgain(t, &again, fr).BatchGetResp(len(values))
			if err != nil || len(bf) != len(failed) {
				t.Fatalf("response round trip: %d failures, then %d (%v)", len(failed), len(bf), err)
			}
			for i := range values {
				if math.Float64bits(bv[i]) != math.Float64bits(values[i]) {
					t.Fatalf("response round trip: value %d changed bits", i)
				}
			}
			for i := range failed {
				if bf[i] != failed[i] {
					t.Fatalf("response round trip: failure %d is %+v, then %+v", i, failed[i], bf[i])
				}
			}
		}
		if metaErr == nil {
			if err := WriteMetaRespV(&again, MaxWireVersion, fr.ID, fr.ElapsedNanos, m); err != nil {
				t.Fatalf("rewriting accepted metadata: %v", err)
			}
			back, err := readAgain(t, &again, fr).Meta()
			if err != nil {
				t.Fatalf("metadata round trip: %v", err)
			}
			if back.FilterName != m.FilterName || back.TupleCount != m.TupleCount || back.ShardIndex != m.ShardIndex ||
				back.ShardCount != m.ShardCount || back.Nonzero != m.Nonzero || math.Float64bits(back.Mass) != math.Float64bits(m.Mass) {
				t.Fatalf("metadata round trip: %+v, then %+v", m, back)
			}
			for i := range m.Names {
				if back.Names[i] != m.Names[i] || back.Sizes[i] != m.Sizes[i] ||
					math.Float64bits(back.Windows[i][0]) != math.Float64bits(m.Windows[i][0]) ||
					math.Float64bits(back.Windows[i][1]) != math.Float64bits(m.Windows[i][1]) {
					t.Fatalf("metadata round trip: dimension %d changed", i)
				}
			}
		}
		if msgErr == nil {
			if err := WriteErrorFrameV(&again, MaxWireVersion, fr.ID, fr.ElapsedNanos, msg); err != nil {
				t.Fatalf("rewriting an accepted error frame: %v", err)
			}
			if back, err := readAgain(t, &again, fr).ErrorMsg(); err != nil || back != msg {
				t.Fatalf("error frame round trip: %q, then %q (%v)", msg, back, err)
			}
		}
	})
}

var errNoValueCount = errors.New("no value count a request could match")

// decodeAllocBound is what the typed accessors may allocate decoding a
// frame of n bytes: a per-entry slice may outgrow the bytes that carry it
// (a one-byte key is an 8-byte int, a two-byte failure a 24-byte
// WireError), by a constant factor, plus a fixed allowance for the decoded
// structs — a metadata frame's 64 dimensions among them.
func decodeAllocBound(n int) uint64 { return 16*uint64(n) + 8<<10 }

// zigzag is the uvarint a varint writer emits for v.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// readAgain reads back the one frame a round trip wrote, which must carry
// the original's type, id and extension.
func readAgain(t *testing.T, buf *bytes.Buffer, orig *WireFrame) *WireFrame {
	t.Helper()
	fr, err := ReadFrameVersion(buf, MaxWireVersion)
	if err != nil {
		t.Fatalf("reading a rewritten frame: %v", err)
	}
	if fr.Type != orig.Type || fr.ID != orig.ID || fr.Trace != orig.Trace || fr.ElapsedNanos != orig.ElapsedNanos || buf.Len() != 0 {
		t.Fatalf("rewritten frame header: %+v, original %+v (%d bytes left)", fr, orig, buf.Len())
	}
	return fr
}
