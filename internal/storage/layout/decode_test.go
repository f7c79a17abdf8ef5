package layout

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// loaded is what a Load of a file and a Walk of it handed over.
type loaded struct {
	cells, nonzero int
	meta           *Meta
	keys           []int
	values         []float64
}

// loadAll loads the file r holds and walks it.
func loadAll(r io.Reader) (*loaded, error) {
	s, err := Load(r)
	if err != nil {
		return nil, err
	}
	defer func() { _ = s.Close() }()
	if s.fileMapped {
		return nil, errors.New("Load mapped the file")
	}
	d := &loaded{cells: s.Size(), nonzero: s.NonzeroCount(), meta: s.Meta()}
	return d, s.Walk(func(k int, v float64) bool {
		d.keys = append(d.keys, k)
		d.values = append(d.values, v)
		return true
	})
}

// decodeInput is what Encode was handed for one of decodeCases' files.
type decodeInput struct {
	keys   []int
	values []float64
	opts   WriteOptions
}

// decodeInputs are the coefficients and options of decodeCases' files: both
// shapes, and a directory file whose blocks end inside key buckets. Each
// also hands Encode a zero, a negative zero and a tiny 1e-60, at keys it
// does not otherwise hold.
func decodeInputs() map[string]decodeInput {
	const cells = 1 << 13
	sparseKeys, sparseValues := testCoefficients(1000, cells, 21)
	denseKeys, denseValues := denseCoefficients(cells, 0.8, 22)
	withZeros := func(keys []int, values []float64) ([]int, []float64) {
		held := make(map[int]bool, len(keys))
		for _, k := range keys {
			held[k] = true
		}
		keys, values = slices.Clone(keys), slices.Clone(values)
		extra := []float64{0, math.Copysign(0, -1), 1e-60}
		for k := 0; len(extra) > 0; k++ {
			if !held[k] {
				keys, values, extra = append(keys, k), append(values, extra[0]), extra[1:]
			}
		}
		return keys, values
	}
	sparseKeys, sparseValues = withZeros(sparseKeys, sparseValues)
	denseKeys, denseValues = withZeros(denseKeys, denseValues)
	return map[string]decodeInput{
		"directory":             {sparseKeys, sparseValues, WriteOptions{Cells: cells, BlockSize: 128}},
		"directory, 100-blocks": {sparseKeys, sparseValues, WriteOptions{Cells: cells, BlockSize: 100}},
		"rank":                  {denseKeys, denseValues, WriteOptions{Cells: cells, BlockSize: 500}},
	}
}

// decodeCases writes decodeInputs' files and returns their paths.
func decodeCases(t *testing.T) map[string]string {
	t.Helper()
	paths := make(map[string]string)
	for name, in := range decodeInputs() {
		write := writeDirectoryLayout
		if name == "rank" {
			write = writeRankLayout
		}
		paths[name] = write(t, in.keys, in.values, in.opts)
	}
	return paths
}

// written is what a walk of a file must hand over for in: its keys
// ascending with zeros dropped, each value's bits as handed to Encode.
func (in decodeInput) written() (keys []int, values []float64) {
	type kv struct {
		k int
		v float64
	}
	var pairs []kv
	for i, k := range in.keys {
		if in.values[i] != 0 {
			pairs = append(pairs, kv{k, in.values[i]})
		}
	}
	slices.SortFunc(pairs, func(a, b kv) int { return cmp.Compare(a.k, b.k) })
	for _, p := range pairs {
		keys, values = append(keys, p.k), append(values, p.v)
	}
	return keys, values
}

// TestDecodeMatchesStore: a Walk of the mapped file and of the file loaded
// from a file and from memory alike hands over exactly what Encode was
// given — ascending keys, zeros dropped, the same bits — and the loaded
// store carries the file's counts.
func TestDecodeMatchesStore(t *testing.T) {
	paths := decodeCases(t)
	for name, in := range decodeInputs() {
		path := paths[name]
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var wantKeys []int
		var wantValues []float64
		nonzero := len(in.keys) - 2 // the zero and the negative zero
		same := func(what string, keys []int, values []float64) {
			t.Helper()
			if !slices.Equal(keys, wantKeys) {
				t.Fatalf("%s, %s: %d keys handed over, want the %d written", name, what, len(keys), len(wantKeys))
			}
			for i := range values {
				if math.Float64bits(values[i]) != math.Float64bits(wantValues[i]) {
					t.Fatalf("%s, %s: key %d is %v, written %v", name, what, keys[i], values[i], wantValues[i])
				}
			}
		}
		s, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		wantKeys, wantValues = in.written()
		var keys []int
		var values []float64
		if err := s.Walk(func(k int, v float64) bool {
			keys, values = append(keys, k), append(values, v)
			return true
		}); err != nil {
			t.Fatalf("%s: Walk: %v", name, err)
		}
		same("Walk", keys, values)
		if s.NonzeroCount() != nonzero {
			t.Fatalf("%s: the store counts %d nonzero, %d were written", name, s.NonzeroCount(), nonzero)
		}
		_ = s.Close()
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		for via, r := range map[string]io.Reader{"file": f, "bytes": bytes.NewReader(raw)} {
			d, err := loadAll(r)
			if err != nil {
				t.Fatalf("%s via %s: %v", name, via, err)
			}
			if d.cells != in.opts.Cells || d.nonzero != nonzero || d.meta != nil {
				t.Fatalf("%s via %s: loaded %d cells, %d nonzero, meta %v", name, via, d.cells, d.nonzero, d.meta)
			}
			same("Load and Walk via "+via, d.keys, d.values)
		}
		_ = f.Close()
	}
}

// TestDecodeRejectsDamage: a file of the wrong size, a damaged block, and a
// damaged section of the index or indexCRC each fail a Load and Walk, from
// a file and from memory alike, and an Open and Verify of the file.
func TestDecodeRejectsDamage(t *testing.T) {
	cases := decodeCases(t)
	for _, name := range []string{"directory", "rank"} {
		path := cases[name]
		s, err := Open(path)
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
		damaged["indexCRC"] = flip(g.fileSize - 1)
		if name == "directory" {
			damaged["a dir count"] = flip(g.dirOff + int64(g.buckets/2*g.dirWidth()))
			damaged["a key's lows"] = flip(g.lowsOff + int64(g.nonzero/2*g.lowWidth))
		} else {
			record := g.rankOff + int64(g.records/2*rankRecord)
			damaged["a rank count"] = flip(record)
			damaged["a rank sub-count"] = flip(record + 8)
			damaged["a rank word"] = flip(record + 16)
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
			for via, r := range map[string]io.Reader{"file": f, "bytes": bytes.NewReader(data)} {
				if _, err := loadAll(r); err == nil {
					t.Errorf("%s, %s via %s: accepted", name, what, via)
				}
			}
			_ = f.Close()
			if s, err := Open(file); err == nil {
				if err := s.Verify(); err == nil {
					t.Errorf("%s, %s: Open and Verify accepted", name, what)
				}
				_ = s.Close()
			}
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
	path := writeRankLayout(t, keys, values, WriteOptions{Cells: cells, BlockSize: 256})
	old, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = old.Close() }()
	if !old.fileMapped {
		t.Skip("no mapping on this platform")
	}
	// The new file is smaller: a truncation in place would cut the old
	// mapping's tail off.
	if err := writeFile(path, keys[:10], values[:10], WriteOptions{Cells: cells / 8}); err != nil {
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
	fresh, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = fresh.Close() }()
	if fresh.Size() != cells/8 || fresh.NonzeroCount() != 10 {
		t.Fatalf("reopened: %d cells, %d nonzero", fresh.Size(), fresh.NonzeroCount())
	}
}

// TestWriteFileConcurrentWriters: two writers of one path in one process,
// both holding their temporary file open at once, write a file each: both
// succeed, path holds exactly one writer's bytes, and no temporary file is
// left behind.
func TestWriteFileConcurrentWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v.wvls")
	payloads := [][]byte{bytes.Repeat([]byte{'a'}, 1<<16), bytes.Repeat([]byte{'b'}, 1<<15)}
	var barrier, done sync.WaitGroup
	barrier.Add(len(payloads))
	errs := make([]error, len(payloads))
	for i, p := range payloads {
		done.Add(1)
		go func() {
			defer done.Done()
			errs[i] = WriteFile(path, func(w io.Writer) error {
				barrier.Done()
				barrier.Wait() // both temporary files are created
				_, err := w.Write(p)
				return err
			})
		}()
	}
	done.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payloads[0]) && !bytes.Equal(got, payloads[1]) {
		t.Fatalf("path holds %d bytes that match neither writer", len(got))
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d directory entries after two writes of one path, want 1", len(entries))
	}
}

// TestWriteFileFailureKeepsTheOldFile: a write that fails part-way leaves
// the old file byte-identical and no temporary file behind.
func TestWriteFileFailureKeepsTheOldFile(t *testing.T) {
	const cells = 1 << 10
	keys, values := denseCoefficients(cells, 0.9, 32)
	path := writeRankLayout(t, keys, values, WriteOptions{Cells: cells})
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
