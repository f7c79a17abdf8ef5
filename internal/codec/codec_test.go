package codec

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/storage"
	"repro/internal/storetest"
)

func buildTestSnapshot(t *testing.T) (*dataset.Schema, *storetest.Map, *bytes.Buffer) {
	t.Helper()
	schema := dataset.MustSchema([]string{"x", "y"}, []int{16, 8})
	store := storetest.NewMap()
	rng := rand.New(rand.NewSource(401))
	for i := 0; i < 40; i++ {
		store.Add(rng.Intn(128), rng.NormFloat64())
	}
	var buf bytes.Buffer
	if err := writeView(&buf, schema, "Db4", 1234, store, nil); err != nil {
		t.Fatal(err)
	}
	return schema, store, &buf
}

func TestWriteReadRoundTrip(t *testing.T) {
	schema, store, buf := buildTestSnapshot(t)
	snap, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if snap.FilterName != "Db4" || snap.TupleCount != 1234 {
		t.Fatalf("metadata wrong: %+v", snap)
	}
	if snap.Schema.NumDims() != 2 || snap.Schema.Sizes[0] != 16 || snap.Schema.Names[1] != "y" {
		t.Fatalf("schema wrong: %+v", snap.Schema)
	}
	if len(snap.Keys) != store.NonzeroCount() {
		t.Fatalf("coefficient count %d, want %d", len(snap.Keys), store.NonzeroCount())
	}
	re := snap.Store()
	store.Walk(func(k int, v float64) bool {
		if got := storage.Get(re, k); got != v {
			t.Fatalf("coefficient %d: %g want %g", k, got, v)
		}
		return true
	})
	_ = schema
}

func TestWriteDeterministic(t *testing.T) {
	_, store, buf1 := buildTestSnapshot(t)
	schema := dataset.MustSchema([]string{"x", "y"}, []int{16, 8})
	var buf2 bytes.Buffer
	if err := writeView(&buf2, schema, "Db4", 1234, store, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("serialization not deterministic")
	}
}

func TestKeysAscending(t *testing.T) {
	_, _, buf := buildTestSnapshot(t)
	snap, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(snap.Keys); i++ {
		if snap.Keys[i] <= snap.Keys[i-1] {
			t.Fatal("keys not strictly ascending")
		}
	}
}

func TestWriteValidation(t *testing.T) {
	store := storetest.NewMap()
	var buf bytes.Buffer
	schema := dataset.MustSchema([]string{"x"}, []int{8})
	if err := writeView(&buf, schema, "", 0, store, nil); err == nil {
		t.Error("empty filter name should fail")
	}
	if err := writeView(&buf, schema, strings.Repeat("f", 300), 0, store, nil); err == nil {
		t.Error("overlong filter name should fail")
	}
	long := dataset.MustSchema([]string{strings.Repeat("n", 1<<16)}, []int{8})
	if err := writeView(&buf, long, "Db4", 0, store, nil); err == nil {
		t.Error("a dimension name longer than the header holds should fail")
	}
	store.Add(9, 1)
	if err := writeView(&buf, schema, "Db4", 0, store, nil); err == nil {
		t.Error("a key outside the domain should fail")
	}
}

// Failure injection: every kind of file corruption must be detected. A
// .wvls file checksums its header and its blocks; the last value byte sits
// in the last block, just before the block checksums (one block here).
func TestReadRejectsCorruption(t *testing.T) {
	_, _, buf := buildTestSnapshot(t)
	good := buf.Bytes()
	flip := func(pos int) []byte {
		c := append([]byte(nil), good...)
		c[pos] ^= 0xFF
		return c
	}
	cases := map[string][]byte{
		"bad magic":         flip(0),
		"bad version":       flip(4),
		"flipped header":    flip(20),
		"flipped last body": flip(len(good) - 5),
		"flipped crc":       flip(len(good) - 1),
		"truncated":         good[:len(good)-7],
		"empty":             nil,
		"trailing garbage":  append(append([]byte(nil), good...), 1, 2, 3),
		"flipped body byte": flip(len(good) / 2),
	}
	for what, data := range cases {
		if _, err := Read(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: corruption not detected", what)
		}
	}
}

// TestReadRejectsStructuralLies: a file whose header checks but whose
// geometry (the domain, the coefficient count) exceeds what its bytes hold
// must be rejected before allocating absurd buffers.
func TestReadRejectsStructuralLies(t *testing.T) {
	schema := dataset.MustSchema([]string{"x"}, []int{4})
	store := storetest.NewMap()
	store.Add(1, 2.5)
	// A .wvls header blob (behind its prelude) starts with cells and nonzero;
	// resealing the header checksum leaves only the geometry checks.
	var view bytes.Buffer
	if err := writeView(&view, schema, "Haar", 1, store, nil); err != nil {
		t.Fatal(err)
	}
	for name, field := range map[string]int{"cells": 16, "nonzero": 24} {
		c := append([]byte(nil), view.Bytes()...)
		binary.LittleEndian.PutUint64(c[field:], 1<<40)
		hdrLen := binary.LittleEndian.Uint32(c[8:])
		binary.LittleEndian.PutUint32(c[12:], crc32.ChecksumIEEE(c[16:16+hdrLen]))
		if _, err := Read(bytes.NewReader(c)); err == nil {
			t.Errorf("inflated %s in a resealed .wvls header not rejected", name)
		}
	}
}

func TestRoundTripArrayToHashStore(t *testing.T) {
	// A snapshot written from an array store and reloaded into a hash store
	// answers identically.
	schema := dataset.MustSchema([]string{"x", "y"}, []int{8, 8})
	cells := make([]float64, 64)
	rng := rand.New(rand.NewSource(11))
	for i := range cells {
		if rng.Intn(2) == 0 {
			cells[i] = rng.NormFloat64()
		}
	}
	arr := storage.NewArrayStore(cells)
	var buf bytes.Buffer
	if err := writeView(&buf, schema, "Haar", 99, arr, nil); err != nil {
		t.Fatal(err)
	}
	snap, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	re := snap.Store()
	for k, v := range cells {
		if got := storage.Get(re, k); math.Abs(got-v) != 0 {
			t.Fatalf("coefficient %d: %g want %g", k, got, v)
		}
	}
}

func TestEmptyStoreRoundTrip(t *testing.T) {
	schema := dataset.MustSchema([]string{"x"}, []int{8})
	var buf bytes.Buffer
	if err := writeView(&buf, schema, "Haar", 0, storetest.NewMap(), nil); err != nil {
		t.Fatal(err)
	}
	snap, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Keys) != 0 {
		t.Fatalf("expected empty snapshot, got %d keys", len(snap.Keys))
	}
}

func BenchmarkWrite(b *testing.B) {
	schema := dataset.MustSchema([]string{"x", "y"}, []int{64, 64})
	store := storetest.NewMap()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		store.Add(rng.Intn(4096), rng.NormFloat64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := writeView(&buf, schema, "Db4", 1, store, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRead(b *testing.B) {
	schema := dataset.MustSchema([]string{"x", "y"}, []int{64, 64})
	store := storetest.NewMap()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 2000; i++ {
		store.Add(rng.Intn(4096), rng.NormFloat64())
	}
	var buf bytes.Buffer
	if err := writeView(&buf, schema, "Db4", 1, store, nil); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func TestWindowsRoundTrip(t *testing.T) {
	schema := dataset.MustSchema([]string{"age", "salary"}, []int{8, 8})
	store := storetest.NewMap()
	store.Add(3, 1.0)
	windows := [][2]float64{{18, 70}, {0, 200000}}
	var buf bytes.Buffer
	if err := writeView(&buf, schema, "Db4", 5, store, windows); err != nil {
		t.Fatal(err)
	}
	snap, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Windows == nil {
		t.Fatal("windows lost")
	}
	for i, w := range windows {
		if snap.Windows[i] != w {
			t.Fatalf("window %d = %v, want %v", i, snap.Windows[i], w)
		}
	}
	// Mismatched window count is rejected at write time.
	if err := writeView(&bytes.Buffer{}, schema, "Db4", 5, store, [][2]float64{{0, 1}}); err == nil {
		t.Error("window count mismatch should fail")
	}
}
