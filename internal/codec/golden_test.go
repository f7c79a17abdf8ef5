package codec

import (
	"bytes"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/storetest"
)

// goldenHexWVLSSparse is the view file Save writes for schema (x:4, y:2),
// filter "Haar", 3 tuples and coefficients {0: 1.5, 5: -2.25}: a .wvls file
// in the sparse shape (two of eight cells nonzero is under half full), its
// header carrying the identity, the values in key order behind the key
// index. The writer must keep producing these exact bytes — serialization is
// canonical — and the reader must read them forever.
const goldenHexWVLSSparse = "57564c53" + // magic "WVLS"
	"0200" + // version 2
	"0000" + // flags: sparse
	"6c000000" + // header blob, 108 bytes
	"dd93951b" + // its CRC-32
	"0800000000000000" + // cells 8
	"0200000000000000" + // nonzero 2
	"0000000000000000" + // reserved 0
	"00100000" + // block size 4096
	"0000000000000e40" + // mass 3.75
	"01" + "04" + "48616172" + // metadata: filter "Haar"
	"0300000000000000" + // tuple count 3
	"0200" + // 2 dims
	"0100" + "78" + "04000000" + "0000000000000000" + "0000000000000000" + // "x", size 4, no window
	"0100" + "79" + "02000000" + "0000000000000000" + "0000000000000000" + // "y", size 2, no window
	"0000" + // reserved 0
	"0000000000000000" + // reserved 0
	"00" + "02" + "00000000000000" + // dir: one bucket of 1-byte lows, 0 then 2 keys, then the pad
	"00" + "05" + "00000000000000" + // lows: keys 0 and 5, then the pad
	"000000000000f83f" + "00000000000002c0" + // the values of keys 0 and 5
	"0928fab7" + // the block's CRC-32
	"ee51c7fb" // indexCRC

// goldenHexWVLS is the view file Save wrote for the same content when the
// writer chose the smaller shape: the dense one (eight cells of 8 bytes are
// fewer bytes than the sparse index). A dense file's bytes did not change
// when the rule did, and the reader must read them forever.
const goldenHexWVLS = "57564c53" + // magic "WVLS"
	"0200" + // version 2
	"0200" + // flags: dense
	"6c000000" + // header blob, 108 bytes
	"dd93951b" + // its CRC-32
	"0800000000000000" + // cells 8
	"0200000000000000" + // nonzero 2
	"0000000000000000" + // reserved 0
	"00100000" + // block size 4096
	"0000000000000e40" + // mass 3.75
	"01" + "04" + "48616172" + // metadata: filter "Haar"
	"0300000000000000" + // tuple count 3
	"0200" + // 2 dims
	"0100" + "78" + "04000000" + "0000000000000000" + "0000000000000000" + // "x", size 4, no window
	"0100" + "79" + "02000000" + "0000000000000000" + "0000000000000000" + // "y", size 2, no window
	"0000" + // reserved 0
	"0000000000000000" + // reserved 0
	"000000000000f83f" + "0000000000000000" + "0000000000000000" + "0000000000000000" + // cells 0-3: 1.5
	"0000000000000000" + "00000000000002c0" + "0000000000000000" + "0000000000000000" + // cells 4-7: -2.25 at 5
	"9cf4da43" // the block's CRC-32

func TestGoldenStreamMatchesWriter(t *testing.T) {
	// The view writer must still produce byte-identical output for the
	// golden content, and the reader must read it back.
	schema := dataset.MustSchema([]string{"x", "y"}, []int{4, 2})
	store := storetest.NewMap()
	store.Add(0, 1.5)
	store.Add(5, -2.25)
	var buf bytes.Buffer
	if err := writeView(&buf, schema, "Haar", 3, store, nil); err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(goldenHexWVLSSparse)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("writer output changed:\n got %x\nwant %x", buf.Bytes(), want)
	}
	testGoldenParses(t, goldenHexWVLSSparse)
	testGoldenParses(t, goldenHexWVLS)
}

func testGoldenParses(t *testing.T, golden string) {
	data, err := hex.DecodeString(golden)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("golden stream rejected: %v", err)
	}
	if snap.Windows != nil {
		t.Fatalf("windowless golden produced windows %v", snap.Windows)
	}
	if snap.FilterName != "Haar" || snap.TupleCount != 3 {
		t.Fatalf("metadata: %+v", snap)
	}
	if snap.Schema.Names[0] != "x" || snap.Schema.Sizes[0] != 4 ||
		snap.Schema.Names[1] != "y" || snap.Schema.Sizes[1] != 2 {
		t.Fatalf("schema: %+v", snap.Schema)
	}
	if len(snap.Keys) != 2 || snap.Keys[0] != 0 || snap.Keys[1] != 5 {
		t.Fatalf("keys: %v", snap.Keys)
	}
	if snap.Values[0] != 1.5 || snap.Values[1] != -2.25 {
		t.Fatalf("values: %v", snap.Values)
	}
}

func TestGoldenFloatEncoding(t *testing.T) {
	// Double-check the float bit patterns the golden stream relies on.
	if math.Float64bits(1.5) != 0x3ff8000000000000 {
		t.Fatal("1.5 bits changed?!")
	}
	if math.Float64bits(-2.25) != 0xc002000000000000 {
		t.Fatal("-2.25 bits changed?!")
	}
}
