package layout

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// decoded is what Decode handed over.
type decoded struct {
	h      Header
	keys   []int
	values []float64
}

func decodeAll(t *testing.T, r io.ReaderAt, size int64) (*decoded, error) {
	t.Helper()
	d := new(decoded)
	err := Decode(r, size, func(h *Header) (func(int, float64), error) {
		d.h = *h
		return func(k int, v float64) {
			d.keys = append(d.keys, k)
			d.values = append(d.values, v)
		}, nil
	})
	return d, err
}

// decodeCases are files of both shapes, plain and quantized, and a sparse
// file whose physical order a family dictates.
func decodeCases(t *testing.T) map[string]string {
	t.Helper()
	const cells = 1 << 13
	sparseKeys, sparseValues := testCoefficients(3000, cells, 21)
	denseKeys, denseValues := denseCoefficients(cells, 0.8, 22)
	family := append([]int(nil), sparseKeys[1000:]...)
	return map[string]string{
		"sparse":           writeTestLayout(t, sparseKeys, sparseValues, WriteOptions{Cells: cells, BlockSize: 128}),
		"sparse quantized": writeTestLayout(t, sparseKeys, sparseValues, WriteOptions{Cells: cells, BlockSize: 128, Quantize: true}),
		"sparse family": writeTestLayout(t, sparseKeys, sparseValues, WriteOptions{Cells: cells, HotCount: 77, BlockSize: 100,
			Families: []FamilyOrder{{Label: "f", Fingerprint: "f", Keys: family}}}),
		"dense":           writeDenseLayout(t, denseKeys, denseValues, WriteOptions{Cells: cells, BlockSize: 500}),
		"dense quantized": writeDenseLayout(t, denseKeys, denseValues, WriteOptions{Cells: cells, Quantize: true}),
	}
}

// TestDecodeMatchesStore: Decode hands over exactly the nonzero
// coefficients the opened store serves, in ascending key order, with the
// same bits, from a mapped file and from positioned reads alike; the header
// carries the store's counts.
func TestDecodeMatchesStore(t *testing.T) {
	for name, path := range decodeCases(t) {
		s, err := Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var wantKeys []int
		s.ForEachNonzero(func(k int, _ float64) bool { wantKeys = append(wantKeys, k); return true })
		slices.Sort(wantKeys)
		want := make([]float64, len(wantKeys))
		if err := s.BatchGetCtx(context.Background(), wantKeys, want); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		for via, r := range map[string]io.ReaderAt{"file": f, "bytes": bytes.NewReader(raw)} {
			d, err := decodeAll(t, r, int64(len(raw)))
			if err != nil {
				t.Fatalf("%s via %s: %v", name, via, err)
			}
			if d.h.Cells != s.Size() || d.h.Nonzero != s.NonzeroCount() || d.h.Meta != nil {
				t.Fatalf("%s via %s: header %+v", name, via, d.h)
			}
			if !slices.Equal(d.keys, wantKeys) {
				t.Fatalf("%s via %s: %d keys handed over, the store serves %d", name, via, len(d.keys), len(wantKeys))
			}
			for i := range want {
				if math.Float64bits(d.values[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s via %s: key %d is %v, the store serves %v", name, via, d.keys[i], d.values[i], want[i])
				}
			}
		}
		_ = f.Close()
		_ = s.Close()
	}
}

// TestDecodeRejectsDamage: a file of the wrong size, a damaged block, a
// damaged section of the key index, the hot region or indexCRC, and a
// refusing begin each fail the read, from a file and from memory alike.
func TestDecodeRejectsDamage(t *testing.T) {
	cases := decodeCases(t)
	for _, name := range []string{"sparse", "dense"} {
		path := cases[name]
		s, err := Open(path, Options{})
		if err != nil {
			t.Fatal(err)
		}
		g, ext := s.g, s.BlockExtent(s.Blocks()-1)
		_ = s.Close()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		flip := func(at int64) []byte {
			c := append([]byte(nil), raw...)
			c[at] ^= 0x40
			return c
		}
		damaged := map[string][]byte{
			"last block":    flip(ext.Off + int64(ext.Len) - 1),
			"a block's crc": flip(g.crcsOff),
			"truncated":     raw[:len(raw)-1],
			"trailing byte": append(append([]byte(nil), raw...), 0),
		}
		if name == "sparse" {
			damaged["key stream"] = flip(g.streamOff + g.streamLen/2)
			damaged["a sample"] = flip(g.samplesOff + int64(g.keyWidth))
			damaged["slotOf"] = flip(g.slotOfOff + int64(g.slotWidth)*int64(g.nonzero/2))
			damaged["keyOfSlot"] = flip(g.keyOfSlotOff + int64(g.keyWidth)*int64(g.nonzero/2))
			damaged["hot region"] = flip(g.hotOff + int64(g.hotCount)*4)
			damaged["indexCRC"] = flip(g.fileSize - 1)
		}
		for what, data := range damaged {
			file := filepath.Join(t.TempDir(), "bad.wvls")
			if err := os.WriteFile(file, data, 0o644); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(file)
			if err != nil {
				t.Fatal(err)
			}
			for via, r := range map[string]io.ReaderAt{"file": f, "bytes": bytes.NewReader(data)} {
				if _, err := decodeAll(t, r, int64(len(data))); err == nil {
					t.Errorf("%s, %s via %s: accepted", name, what, via)
				}
			}
			_ = f.Close()
		}
		refuse := errors.New("sink refuses")
		err = Decode(bytes.NewReader(raw), int64(len(raw)), func(*Header) (func(int, float64), error) { return nil, refuse })
		if err != refuse {
			t.Fatalf("%s: Decode returned %v, want begin's error as is", name, err)
		}
	}
}

// TestWriteFileKeepsAMappedReader: rewriting a file a store has mapped
// leaves the store serving the old bytes — the writer renames a new inode
// over the path instead of truncating the old one, which would fault the
// reader's next touch of a page past the new end — and a reopen serves the
// new ones.
func TestWriteFileKeepsAMappedReader(t *testing.T) {
	const cells = 1 << 12
	keys, values := denseCoefficients(cells, 0.9, 31)
	path := writeDenseLayout(t, keys, values, WriteOptions{Cells: cells, BlockSize: 256})
	old, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = old.Close() }()
	if !old.Mmapped() {
		t.Skip("no mapping on this platform")
	}
	// The new file is smaller: a truncation in place would cut the old
	// mapping's tail off.
	if _, err := Write(path, keys[:10], values[:10], WriteOptions{Cells: cells / 8}); err != nil {
		t.Fatal(err)
	}
	all := make([]int, cells)
	for k := range all {
		all[k] = cells - 1 - k
	}
	got := make([]float64, cells)
	if err := old.BatchGetCtx(context.Background(), all, got); err != nil {
		t.Fatal(err)
	}
	want := make([]float64, cells)
	for i, k := range keys {
		want[k] = values[i]
	}
	for i, k := range all {
		if math.Float64bits(got[i]) != math.Float64bits(want[k]) {
			t.Fatalf("key %d after the rewrite: %v, want %v", k, got[i], want[k])
		}
	}
	fresh, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = fresh.Close() }()
	if fresh.Size() != cells/8 || fresh.NonzeroCount() != 10 {
		t.Fatalf("reopened: %d cells, %d nonzero", fresh.Size(), fresh.NonzeroCount())
	}
}

// TestWriteFileFailureKeepsTheOldFile: a write that fails part-way leaves
// the old file byte-identical and no temporary file behind.
func TestWriteFileFailureKeepsTheOldFile(t *testing.T) {
	const cells = 1 << 10
	keys, values := denseCoefficients(cells, 0.9, 32)
	path := writeDenseLayout(t, keys, values, WriteOptions{Cells: cells})
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fail := errors.New("disk full")
	err = WriteFile(path, func(w io.Writer) error {
		if _, err := w.Write(before[:len(before)/2]); err != nil {
			return err
		}
		return fail
	})
	if !errors.Is(err, fail) {
		t.Fatalf("WriteFile returned %v, want the writer's error", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("a failed write changed the old file")
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("a failed write left %s behind", e.Name())
		}
	}
}
