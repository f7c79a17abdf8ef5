package storage

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func tempPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "coeffs.wvfs")
}

func TestFileStoreCreateGetMatchesMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	cells := make([]float64, 257)
	for i := range cells {
		if rng.Intn(3) == 0 {
			cells[i] = rng.NormFloat64()
		}
	}
	path := tempPath(t)
	fs, err := CreateFileStore(path, cells)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if fs.Size() != len(cells) {
		t.Fatalf("Size = %d", fs.Size())
	}
	for i, want := range cells {
		if got := Get(fs, i); got != want {
			t.Fatalf("Get(%d) = %g, want %g", i, got, want)
		}
	}
	if fs.Retrievals() != int64(len(cells)) {
		t.Fatalf("Retrievals = %d", fs.Retrievals())
	}
	fs.ResetStats()
	if fs.Retrievals() != 0 {
		t.Fatal("ResetStats failed")
	}
}

func TestFileStoreReopen(t *testing.T) {
	cells := []float64{0, 1.5, 0, -2.25}
	path := tempPath(t)
	fs, err := CreateFileStore(path, cells)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Size() != 4 || Get(re, 1) != 1.5 || Get(re, 3) != -2.25 {
		t.Fatal("reopened store content wrong")
	}
	if re.NonzeroCount() != 2 {
		t.Fatalf("NonzeroCount = %d", re.NonzeroCount())
	}
}

func TestFileStoreForEachNonzero(t *testing.T) {
	cells := []float64{0, 7, 0, 0, 9, 0}
	fs, err := CreateFileStore(tempPath(t), cells)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	var keys []int
	fs.ForEachNonzero(func(k int, v float64) bool {
		keys = append(keys, k)
		return true
	})
	if len(keys) != 2 || keys[0] != 1 || keys[1] != 4 {
		t.Fatalf("keys = %v", keys)
	}
	// Early stop.
	n := 0
	fs.ForEachNonzero(func(int, float64) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestFileStoreAdd(t *testing.T) {
	fs, err := CreateFileStore(tempPath(t), make([]float64, 8))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	fs.Add(3, 2.5)
	fs.Add(3, -1)
	if got := Get(fs, 3); got != 1.5 {
		t.Fatalf("after Add: %g", got)
	}
}

func TestFileStorePanicsOutOfRange(t *testing.T) {
	fs, err := CreateFileStore(tempPath(t), make([]float64, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	for _, fn := range []func(){
		func() { Get(fs, -1) },
		func() { Get(fs, 2) },
		func() { fs.Add(9, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// Failure injection: corrupted headers and truncated files must be rejected
// at open time, not discovered as garbage reads later.
func TestOpenFileStoreRejectsCorruption(t *testing.T) {
	path := tempPath(t)
	fs, err := CreateFileStore(path, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	fs.Close()

	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string]func([]byte) []byte{
		"bad magic": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] = 'X'
			return c
		},
		"bad version": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[4] = 0xFF
			return c
		},
		"truncated": func(b []byte) []byte { return b[:len(b)-5] },
		"trailing garbage": func(b []byte) []byte {
			return append(append([]byte(nil), b...), 0xAB)
		},
		"empty": func([]byte) []byte { return nil },
	}
	for name, mutate := range cases {
		p := filepath.Join(t.TempDir(), "bad.wvfs")
		if err := os.WriteFile(p, mutate(good), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenFileStore(p); err == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
	if _, err := OpenFileStore(filepath.Join(t.TempDir(), "missing.wvfs")); err == nil {
		t.Error("missing file should fail")
	}
}

func TestFileStoreEmptyArray(t *testing.T) {
	fs, err := CreateFileStore(tempPath(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if fs.Size() != 0 || fs.NonzeroCount() != 0 {
		t.Fatal("empty store wrong")
	}
}

func BenchmarkFileStoreGet(b *testing.B) {
	cells := make([]float64, 1<<14)
	for i := range cells {
		cells[i] = float64(i)
	}
	fs, err := CreateFileStore(filepath.Join(b.TempDir(), "bench.wvfs"), cells)
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Get(fs, i&(1<<14-1))
	}
}
