package codec

import (
	"bytes"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/storetest"
)

// goldenHexWVLS is the view file Save writes for schema (x:4, y:2), filter
// "Haar", 3 tuples and coefficients {0: 1.5, 5: -2.25}: a .wvls file in the
// directory shape (its key directory, 18 bytes, is smaller than a rank
// record's 80), its header carrying the identity, the values in key order
// behind a bucket directory and each key's low byte. The writer must keep
// producing these exact bytes — serialization is canonical — and the reader
// must read them forever. They are the bytes the writer wrote before the
// rank shape came, too.
const goldenHexWVLS = "57564c53" + // magic "WVLS"
	"0200" + // version 2
	"0000" + // flags: directory shape
	goldenHeader +
	"00" + "02" + "00000000000000" + // dir: one bucket of 1-byte lows, 0 then 2 keys, then the pad
	"00" + "05" + "00000000000000" + // lows: keys 0 and 5, then the pad
	"000000000000f83f" + "00000000000002c0" + // the values of keys 0 and 5
	"0928fab7" + // the block's CRC-32
	"ee51c7fb" // indexCRC

// goldenHeader is the three goldens' header: its length and CRC-32, then
// the blob.
const goldenHeader = "6c000000" + // header blob, 108 bytes
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
	"0000000000000000" // reserved 0

// goldenHexWVLSRank is the same content in the rank shape, which the
// writer picks only for a denser file: one rank record, the count below
// it, its sub-counts and its eight words, before the same values. The
// reader takes the shape from the flag, not from the rule, and must read
// these bytes forever.
const goldenHexWVLSRank = "57564c53" + // magic "WVLS"
	"0200" + // version 2
	"0400" + // flags: rank shape
	goldenHeader +
	"0000000000000000" + // rank record: no key below it
	"0204081020408000" + // its sub-counts: 2 keys below each of words 1-7
	"2100000000000000" + // word 0: keys 0 and 5
	"0000000000000000" + "0000000000000000" + "0000000000000000" + "0000000000000000" + // words 1-4 and
	"0000000000000000" + "0000000000000000" + "0000000000000000" + // 5-7, past the domain's 8 cells
	"000000000000f83f" + "00000000000002c0" + // the values of keys 0 and 5
	"0928fab7" + // the block's CRC-32
	"9d8186fc" // indexCRC

// goldenHexWVLSDense is the view file Save wrote for the same content when
// the writer chose the smaller of a key directory and every cell stored:
// the dense shape, eight cells of 8 bytes and no index. The reader no
// longer reads it and must refuse it with the rebuild named.
const goldenHexWVLSDense = "57564c53" + // magic "WVLS"
	"0200" + // version 2
	"0200" + // flags: dense
	goldenHeader +
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
	want, err := hex.DecodeString(goldenHexWVLS)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("writer output changed:\n got %x\nwant %x", buf.Bytes(), want)
	}
	testGoldenParses(t, goldenHexWVLS)
	testGoldenParses(t, goldenHexWVLSRank)
}

// TestGoldenDenseRefused pins the refusal of the dense shape's golden: Read
// fails, and the error names the rebuild from the source data.
func TestGoldenDenseRefused(t *testing.T) {
	data, err := hex.DecodeString(goldenHexWVLSDense)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Read(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "rebuild it from the source data with wvload or wvq -create") {
		t.Fatalf("Read of a dense file = %v, want a refusal naming the rebuild", err)
	}
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
