package codec

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/dataset"
	"repro/internal/storage"
	"repro/internal/storage/layout"
	"repro/internal/storetest"
)

// blockShapes are the two shapes of a view file, each over enough
// coefficients to fill several blocks: 10000 of 128×128 cells come out
// dense, 10000 of 256×256 sparse.
var blockShapes = map[string][]int{"dense": {128, 128}, "sparse": {256, 256}}

// blockFile writes count coefficients over a domain of the given sizes as a
// .wvls view file and returns it with the store it was written from and the
// file's layout, opened so tests can address its sections and blocks.
func blockFile(t *testing.T, sizes []int, count int) ([]byte, *storetest.Map, *layout.Store) {
	t.Helper()
	schema := dataset.MustSchema([]string{"x", "y"}, sizes)
	store := storetest.NewMap()
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

// mustFail reads data, from bytes and from a file, through Read and
// through layout.Load, HeaderOf and Walk: each must fail, and Read must not
// return a snapshot.
func mustFail(t *testing.T, name string, data []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bad.wvls")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for via, open := range map[string]func() io.Reader{
		"bytes": func() io.Reader { return bytes.NewReader(data) },
		"file": func() io.Reader {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = f.Close() })
			return f
		},
	} {
		if s, err := layout.Load(open()); err == nil {
			walked := 0
			_, herr := HeaderOf(s)
			werr := s.Walk(func(int, float64) bool { walked++; return true })
			_ = s.Close()
			if herr == nil && werr == nil {
				t.Fatalf("%s via %s: Load, HeaderOf and Walk accepted the file (%d coefficients walked)", name, via, walked)
			}
		}
		if snap, err := Read(open()); err == nil || snap != nil {
			t.Fatalf("%s via %s: Read returned (%v, %v), want no snapshot and an error", name, via, snap, err)
		}
	}
}

// TestReadWalksBlocksInOrder: Read, from bytes and from a file, hands back
// the header the file was written with and every coefficient in ascending
// key order, the store's bits, which a Walk of the loaded file hands over
// the same.
func TestReadWalksBlocksInOrder(t *testing.T) {
	const count = 10000
	for shape, sizes := range blockShapes {
		file, store, _ := blockFile(t, sizes, count)
		path := filepath.Join(t.TempDir(), "view.wvls")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		fromFile, err := Read(f)
		_ = f.Close()
		if err != nil {
			t.Fatal(err)
		}
		snap, err := Read(bytes.NewReader(file))
		if err != nil {
			t.Fatal(err)
		}
		for via, sn := range map[string]*Snapshot{"bytes": snap, "file": fromFile} {
			h := sn.Header
			if h.Count != count || len(sn.Keys) != count || len(sn.Values) != count {
				t.Fatalf("%s via %s: header count %d, %d keys, %d values; wrote %d", shape, via, h.Count, len(sn.Keys), len(sn.Values), count)
			}
			if h.FilterName != "Db4" || h.TupleCount != 99 || h.Schema.Cells() != sizes[0]*sizes[1] || h.Windows[1] != [2]float64{-5, 5} {
				t.Fatalf("%s via %s: header %+v", shape, via, h)
			}
			for i, k := range sn.Keys {
				if i > 0 && k <= sn.Keys[i-1] {
					t.Fatalf("%s via %s: key %d after %d", shape, via, k, sn.Keys[i-1])
				}
				if sn.Values[i] != storage.Get(store, k) || sn.Values[i] != snap.Values[i] || k != snap.Keys[i] {
					t.Fatalf("%s via %s: coefficient %d = (%d, %v), the store has %v", shape, via, i, k, sn.Values[i], storage.Get(store, k))
				}
			}
		}
		s, err := layout.Load(bytes.NewReader(file))
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		err = s.Walk(func(k int, v float64) bool {
			if k != snap.Keys[i] || math.Float64bits(v) != math.Float64bits(snap.Values[i]) {
				t.Fatalf("%s: Walk's coefficient %d = (%d, %v), Read has (%d, %v)", shape, i, k, v, snap.Keys[i], snap.Values[i])
			}
			i++
			return true
		})
		_ = s.Close()
		if err != nil || i != count {
			t.Fatalf("%s: Walk: %v after %d of %d coefficients", shape, err, i, count)
		}
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
