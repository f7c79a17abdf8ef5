package codec

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/storage"
	"repro/internal/storage/layout"
)

// blockShapes are the two shapes of a view file, each over enough
// coefficients to fill several blocks: 10000 of 128×128 cells come out
// dense, 10000 of 256×256 sparse.
var blockShapes = map[string][]int{"dense": {128, 128}, "sparse": {256, 256}}

// blockFile writes count coefficients over a domain of the given sizes as a
// .wvls view file and returns it with the store it was written from and the
// file's layout, opened so tests can address its sections and blocks.
func blockFile(t *testing.T, sizes []int, count int) ([]byte, *storage.HashStore, *layout.Store) {
	t.Helper()
	schema := dataset.MustSchema([]string{"x", "y"}, sizes)
	store := storage.NewHashStore()
	rng := rand.New(rand.NewSource(77))
	for store.NonzeroCount() < count {
		store.Add(rng.Intn(schema.Cells()), 1+rng.Float64())
	}
	var buf bytes.Buffer
	if err := writeView(&buf, schema, "Db4", 99, store, [][2]float64{{0, 1}, {-5, 5}}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "view.wvls")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := layout.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	if s.Blocks() < 3 {
		t.Fatalf("%d blocks; the file should span several", s.Blocks())
	}
	return buf.Bytes(), store, s
}

// boundaries lists the offsets at which the file's sections and blocks
// start and end.
func boundaries(s *layout.Store) []int {
	var at []int
	off := 0
	for _, sec := range s.Sections() {
		at = append(at, off)
		off += int(sec.Bytes)
	}
	for b := 0; b < s.Blocks(); b++ {
		e := s.BlockExtent(b)
		at = append(at, int(e.Off), int(e.Off)+e.Len/2, int(e.Off)+e.Len-1)
	}
	return at
}

func mustFail(t *testing.T, name string, data []byte) {
	t.Helper()
	emitted := 0
	err := Decode(bytes.NewReader(data), func(*Header) (func(int, float64), error) {
		return func(int, float64) { emitted++ }, nil
	})
	if err == nil {
		t.Fatalf("%s: Decode accepted the file (%d coefficients emitted)", name, emitted)
	}
	if snap, err := Read(bytes.NewReader(data)); err == nil || snap != nil {
		t.Fatalf("%s: Read returned (%v, %v), want no snapshot and an error", name, snap, err)
	}
}

func TestDecodeStreamsBlocksInOrder(t *testing.T) {
	const count = 10000
	for shape, sizes := range blockShapes {
		file, store, _ := blockFile(t, sizes, count)
		snap, err := Read(bytes.NewReader(file))
		if err != nil {
			t.Fatal(err)
		}
		if snap.Count != count || len(snap.Keys) != count || len(snap.Values) != count {
			t.Fatalf("%s: Read: header count %d, %d keys, %d values; wrote %d", shape, snap.Count, len(snap.Keys), len(snap.Values), count)
		}
		i := 0
		err = Decode(bytes.NewReader(file), func(h *Header) (func(int, float64), error) {
			if h.Count != count || h.FilterName != "Db4" || h.TupleCount != 99 || h.Schema.Cells() != sizes[0]*sizes[1] || h.Windows[1] != [2]float64{-5, 5} {
				t.Fatalf("%s: header handed to begin: %+v", shape, h)
			}
			return func(k int, v float64) {
				if i > 0 && k <= snap.Keys[i-1] {
					t.Fatalf("%s: key %d after %d", shape, k, snap.Keys[i-1])
				}
				if k != snap.Keys[i] || v != snap.Values[i] || v != storage.Get(store, k) {
					t.Fatalf("%s: coefficient %d = (%d, %v), Read has (%d, %v), the store %v", shape, i, k, v, snap.Keys[i], snap.Values[i], storage.Get(store, k))
				}
				i++
			}, nil
		})
		if err != nil || i != count {
			t.Fatalf("%s: Decode: %v after %d of %d coefficients", shape, err, i, count)
		}
	}
}

func TestDecodeBeginErrorAborts(t *testing.T) {
	file, _, _ := blockFile(t, blockShapes["sparse"], 10000)
	refuse := errors.New("sink refuses")
	err := Decode(bytes.NewReader(file), func(*Header) (func(int, float64), error) { return nil, refuse })
	if err != refuse {
		t.Fatalf("Decode returned %v, want begin's error as is", err)
	}
}

// TestDecodeRejectsTruncation cuts the file inside the header, at every
// section and block boundary, in the middle of a block and one byte short:
// each must fail, and Read must not return a snapshot.
func TestDecodeRejectsTruncation(t *testing.T) {
	for shape, sizes := range blockShapes {
		file, _, s := blockFile(t, sizes, 10000)
		cuts := []int{len(file) - 1}
		for n := 0; n < int(s.Sections()[0].Bytes); n++ {
			cuts = append(cuts, n)
		}
		for _, n := range append(cuts, boundaries(s)...) {
			mustFail(t, shape+" truncated", file[:n])
		}
	}
}

// TestDecodeRejectsFlippedBytes flips every header byte, the first byte of
// every section, and the first, middle and last byte of every block: the
// header, index and block checksums must catch each.
func TestDecodeRejectsFlippedBytes(t *testing.T) {
	for shape, sizes := range blockShapes {
		file, _, s := blockFile(t, sizes, 10000)
		positions := []int{len(file) - 1}
		for n := 0; n < int(s.Sections()[0].Bytes); n++ {
			positions = append(positions, n)
		}
		for _, pos := range append(positions, boundaries(s)...) {
			c := append([]byte(nil), file...)
			c[pos] ^= 0x01
			mustFail(t, fmt.Sprintf("%s flipped byte %d of %d", shape, pos, len(file)), c)
		}
	}
}
