package codec

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/storage"
)

// FuzzRead feeds arbitrary byte streams to the deserializer: it must never
// panic or allocate absurdly, and anything it accepts must round-trip to an
// identical byte stream (canonical form).
func FuzzRead(f *testing.F) {
	// Seed with a couple of valid streams and mutations thereof.
	schema := dataset.MustSchema([]string{"x", "y"}, []int{8, 8})
	store := storage.NewHashStore()
	store.Add(3, 1.25)
	store.Add(17, -2.5)
	var buf bytes.Buffer
	if err := Write(&buf, schema, "Db4", 42, store, nil); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("WVDB"))
	corrupted := append([]byte(nil), buf.Bytes()...)
	corrupted[len(corrupted)/2] ^= 0x55
	f.Add(corrupted)

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted: re-serialize and verify canonical round-trip.
		var out bytes.Buffer
		if err := Write(&out, snap.Schema, snap.FilterName, snap.TupleCount, snap.Store(), snap.Windows); err != nil {
			t.Fatalf("re-serialization failed: %v", err)
		}
		resnap, err := Read(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		if len(resnap.Keys) != len(snap.Keys) {
			t.Fatalf("round-trip changed coefficient count")
		}
	})
}

// FuzzWireFrame feeds arbitrary bytes to the shard wire reader at both wire
// versions and decodes whatever frame it accepts with every typed accessor:
// nothing may panic, and a body an accessor accepts must write back and read
// again to the same values. Seeds are one valid frame of each type at each
// version, plus the malformed frames of TestWireMalformedFrames.
func FuzzWireFrame(f *testing.F) {
	meta := &ShardMeta{
		Names: []string{"lat", "lon"}, Sizes: []int{64, 128},
		Windows: [][2]float64{{-90, 90}, {0, 0}}, FilterName: "Db4",
		TupleCount: 123456, ShardIndex: 1, ShardCount: 4, Nonzero: 9999, Mass: 31337.25,
	}
	for v := MinWireVersion; v <= MaxWireVersion; v++ {
		var buf bytes.Buffer
		for _, write := range []func() error{
			func() error { return WriteBatchGetReqV(&buf, v, 7, "req-000001", []int{3, 1, 4, 1, 5, 1 << 40}) },
			func() error {
				return WriteBatchGetRespV(&buf, v, 7, 42, []float64{1.5, math.Pi, math.NaN()}, []WireError{{Index: 1, Msg: "boom"}})
			},
			func() error { return WriteMetaReqV(&buf, v, 8, "req-meta") },
			func() error { return WriteMetaRespV(&buf, v, 8, 9, meta) },
			func() error { return WriteErrorFrameV(&buf, v, 9, 10, "store on fire") },
		} {
			buf.Reset()
			if err := write(); err != nil {
				f.Fatal(err)
			}
			f.Add(append([]byte(nil), buf.Bytes()...), uint8(v))
		}
	}
	f.Add(binary.LittleEndian.AppendUint32(nil, MaxFramePayload+1), uint8(1))
	f.Add(binary.LittleEndian.AppendUint32(nil, MaxFramePayload), uint8(2))
	f.Add([]byte{4, 0, 0, 0, 0, 0, 0, 0}, uint8(1))
	negative := binary.AppendVarint(binary.AppendUvarint(binary.LittleEndian.AppendUint64([]byte{FrameBatchGetReq}, 1), 1), -5)
	f.Add(append(binary.LittleEndian.AppendUint32(nil, uint32(len(negative))), negative...), uint8(1))

	f.Fuzz(func(t *testing.T, data []byte, v uint8) {
		// Every byte names a version in [Min, Max]; a seed's own version
		// names itself.
		version := MinWireVersion + (uint16(v)-MinWireVersion)%(MaxWireVersion-MinWireVersion+1)
		fr, err := ReadFrameVersion(bytes.NewReader(data), version)
		if err != nil {
			return
		}
		var again bytes.Buffer
		if keys, err := fr.BatchGetReq(); err == nil {
			if err := WriteBatchGetReqV(&again, version, fr.ID, fr.Trace, keys); err != nil {
				t.Fatalf("rewriting an accepted request: %v", err)
			}
			back, err := readAgain(t, &again, version, fr).BatchGetReq()
			if err != nil || len(back) != len(keys) {
				t.Fatalf("request round trip: %d keys, then %d (%v)", len(keys), len(back), err)
			}
			for i := range keys {
				if back[i] != keys[i] {
					t.Fatalf("request round trip: key %d is %d, then %d", i, keys[i], back[i])
				}
			}
		}
		if n, k := binary.Uvarint(fr.body); k > 0 && n <= MaxBatchKeys {
			if values, failed, err := fr.BatchGetResp(int(n)); err == nil {
				if err := WriteBatchGetRespV(&again, version, fr.ID, fr.ElapsedNanos, values, failed); err != nil {
					t.Fatalf("rewriting an accepted response: %v", err)
				}
				bv, bf, err := readAgain(t, &again, version, fr).BatchGetResp(len(values))
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
		}
		if m, err := fr.Meta(); err == nil {
			if err := WriteMetaRespV(&again, version, fr.ID, fr.ElapsedNanos, m); err != nil {
				t.Fatalf("rewriting accepted metadata: %v", err)
			}
			back, err := readAgain(t, &again, version, fr).Meta()
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
		if msg, err := fr.ErrorMsg(); err == nil {
			if err := WriteErrorFrameV(&again, version, fr.ID, fr.ElapsedNanos, msg); err != nil {
				t.Fatalf("rewriting an accepted error frame: %v", err)
			}
			if back, err := readAgain(t, &again, version, fr).ErrorMsg(); err != nil || back != msg {
				t.Fatalf("error frame round trip: %q, then %q (%v)", msg, back, err)
			}
		}
	})
}

// readAgain reads back the one frame a round trip wrote, which must carry
// the original's type, id and extension.
func readAgain(t *testing.T, buf *bytes.Buffer, version uint16, orig *WireFrame) *WireFrame {
	t.Helper()
	fr, err := ReadFrameVersion(buf, version)
	if err != nil {
		t.Fatalf("reading a rewritten frame: %v", err)
	}
	if fr.Type != orig.Type || fr.ID != orig.ID || fr.Trace != orig.Trace || fr.ElapsedNanos != orig.ElapsedNanos || buf.Len() != 0 {
		t.Fatalf("rewritten frame header: %+v, original %+v (%d bytes left)", fr, orig, buf.Len())
	}
	return fr
}
