package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/storage"
)

// blockStream serializes count coefficients — enough for several decoder
// blocks — over a 128×128 domain as a .wvdb stream and returns it with the
// length of its header, so tests can address the pair at any index.
func blockStream(t *testing.T, count int) (stream []byte, headerLen int) {
	t.Helper()
	schema := dataset.MustSchema([]string{"x", "y"}, []int{128, 128})
	store := storage.NewHashStore()
	rng := rand.New(rand.NewSource(77))
	for store.NonzeroCount() < count {
		store.Add(rng.Intn(schema.Cells()), 1+rng.Float64())
	}
	stream = encodeWVDB(schema, "Db4", 99, store, [][2]float64{{0, 1}, {-5, 5}})
	return stream, len(stream) - 4 - count*pairBytes
}

// resealed returns a copy of stream with mutate applied to it and the
// trailing CRC recomputed, so only the structural checks can catch the edit.
func resealed(stream []byte, mutate func([]byte)) []byte {
	c := append([]byte(nil), stream...)
	mutate(c)
	binary.LittleEndian.PutUint32(c[len(c)-4:], crc32.ChecksumIEEE(c[:len(c)-4]))
	return c
}

func mustFail(t *testing.T, name string, data []byte, wantInError string) {
	t.Helper()
	emitted := 0
	err := Decode(bytes.NewReader(data), func(*Header) (func(int, float64), error) {
		return func(int, float64) { emitted++ }, nil
	})
	if err == nil {
		t.Fatalf("%s: Decode accepted the stream (%d coefficients emitted)", name, emitted)
	}
	if !strings.Contains(err.Error(), wantInError) {
		t.Fatalf("%s: error %q does not mention %q", name, err, wantInError)
	}
	if snap, err := Read(bytes.NewReader(data)); err == nil || snap != nil {
		t.Fatalf("%s: Read returned (%v, %v), want no snapshot and an error", name, snap, err)
	}
}

func TestDecodeStreamsBlocksInOrder(t *testing.T) {
	const count = 2*blockPairs + 1808
	stream, _ := blockStream(t, count)
	snap, err := Read(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if snap.Count != count || len(snap.Keys) != count || len(snap.Values) != count {
		t.Fatalf("Read: header count %d, %d keys, %d values; wrote %d", snap.Count, len(snap.Keys), len(snap.Values), count)
	}
	i := 0
	err = Decode(bytes.NewReader(stream), func(h *Header) (func(int, float64), error) {
		if h.Count != count || h.FilterName != "Db4" || h.TupleCount != 99 || h.Schema.Cells() != 128*128 || h.Windows[1] != [2]float64{-5, 5} {
			t.Fatalf("header handed to begin: %+v", h)
		}
		return func(k int, v float64) {
			if k != snap.Keys[i] || v != snap.Values[i] {
				t.Fatalf("coefficient %d = (%d, %v), Read has (%d, %v)", i, k, v, snap.Keys[i], snap.Values[i])
			}
			i++
		}, nil
	})
	if err != nil || i != count {
		t.Fatalf("Decode: %v after %d of %d coefficients", err, i, count)
	}
}

func TestDecodeBeginErrorAborts(t *testing.T) {
	stream, _ := blockStream(t, 10)
	refuse := errors.New("sink refuses")
	err := Decode(bytes.NewReader(stream), func(*Header) (func(int, float64), error) { return nil, refuse })
	if err != refuse {
		t.Fatalf("Decode returned %v, want begin's error as is", err)
	}
}

// TestDecodeRejectsTruncation cuts the stream inside the header, at every
// block boundary, in the middle of a pair and of a key, and inside the
// trailer: each must fail, and Read must not return a snapshot.
func TestDecodeRejectsTruncation(t *testing.T) {
	const count = 2*blockPairs + 1808
	stream, hdr := blockStream(t, count)
	cuts := map[int]string{0: "magic", 3: "magic", len(stream) - 4: "checksum", len(stream) - 1: "checksum"}
	for n := 5; n < hdr; n++ {
		cuts[n] = "" // some header field: any error will do
	}
	for block := 0; block <= 2; block++ {
		at := hdr + block*blockPairs*pairBytes
		cuts[at], cuts[at+8], cuts[at+3], cuts[at+pairBytes+11] = "coefficients", "coefficients", "coefficients", "coefficients"
	}
	cuts[hdr+count*pairBytes-1] = "coefficients"
	for n, want := range cuts {
		mustFail(t, "truncated", stream[:n], want)
	}
}

func TestDecodeRejectsFlippedBytes(t *testing.T) {
	const count = 2*blockPairs + 1808
	stream, hdr := blockStream(t, count)
	positions := []int{len(stream) - 1, len(stream) - 4}
	for n := 0; n < hdr; n++ {
		positions = append(positions, n)
	}
	for block := 0; block <= 2; block++ {
		at := hdr + block*blockPairs*pairBytes
		// First key, a value's low byte (structurally invisible: only the
		// CRC sees it) and the block's last byte.
		positions = append(positions, at, at+8, at+min(blockPairs, count-block*blockPairs)*pairBytes-1)
	}
	for _, pos := range positions {
		c := append([]byte(nil), stream...)
		c[pos] ^= 0x01
		mustFail(t, "flipped byte", c, "")
	}
}

// TestDecodeRejectsBadKeysBehindAValidChecksum: keys out of order or outside
// the domain are refused by the structural checks themselves, in whichever
// block they sit.
func TestDecodeRejectsBadKeysBehindAValidChecksum(t *testing.T) {
	const count = 2*blockPairs + 1808
	stream, hdr := blockStream(t, count)
	keyAt := func(c []byte, i int) []byte { return c[hdr+i*pairBytes:][:8] }
	for _, i := range []int{1, blockPairs, blockPairs + 17, count - 1} {
		mustFail(t, "repeated key", resealed(stream, func(c []byte) {
			copy(keyAt(c, i), keyAt(c, i-1))
		}), "ascending")
		mustFail(t, "descending key", resealed(stream, func(c []byte) {
			binary.LittleEndian.PutUint64(keyAt(c, i), binary.LittleEndian.Uint64(keyAt(c, i-1))-1)
		}), "ascending")
		mustFail(t, "key past the domain", resealed(stream, func(c []byte) {
			binary.LittleEndian.PutUint64(keyAt(c, i), 128*128)
		}), "outside domain")
		mustFail(t, "key with the sign bit", resealed(stream, func(c []byte) {
			binary.LittleEndian.PutUint64(keyAt(c, i), 1<<63)
		}), "outside domain")
	}
	mustFail(t, "count one short", resealed(stream, func(c []byte) {
		binary.LittleEndian.PutUint64(c[hdr-8:], count-1)
	}), "")
	mustFail(t, "count one over", resealed(stream, func(c []byte) {
		binary.LittleEndian.PutUint64(c[hdr-8:], count+1)
	}), "")
}
