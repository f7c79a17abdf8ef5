package storage

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// walkOf is the walk Build takes, over keys and their values as given.
func walkOf(keys []int, vals []float64) func(fn func(int, float64) bool) error {
	return func(fn func(int, float64) bool) error {
		for i, k := range keys {
			if !fn(k, vals[i]) {
				return nil
			}
		}
		return nil
	}
}

// sparseOf builds the sparse store of m's entries.
func sparseOf(t testing.TB, m map[int]float64) *SparseStore {
	t.Helper()
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	vals := make([]float64, len(keys))
	for i, k := range keys {
		vals[i] = m[k]
	}
	s, err := Build(0, len(keys), walkOf(keys, vals))
	if err != nil {
		t.Fatal(err)
	}
	return s.(*SparseStore)
}

// probeKeys is every key a lookup in m could get wrong: each stored key and
// its neighbours, the first key of every bucket and the one before it, the
// domain's ends, one past the last bucket and a negative key.
func probeKeys(m *Sorted, cells int) []int {
	probe := []int{0, 1, cells - 1, cells - 2, -1}
	for _, k := range m.keys {
		probe = append(probe, k-1, k, k+1)
	}
	for b := 0; b < len(m.dir); b++ {
		probe = append(probe, b<<m.shift-1, b<<m.shift)
	}
	kept := probe[:0]
	for _, k := range probe {
		if k >= -1 && k < cells {
			kept = append(kept, k)
		}
	}
	return kept
}

// TestOverlayLookupMatchesAMap: a Sorted map finds exactly the keys it was
// built from, with their bits, at both ends of the domain and on both sides
// of every bucket boundary, and its directory grows with its key count, not
// with the domain: a 2⁴⁰-cell domain holding one key has one bucket. Both
// users read through it: an MVCC overlay, explicit zeros included, and the
// sparse base store built from the same keys, which stores no zero.
func TestOverlayLookupMatchesAMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const huge = 1 << 40
	sets := []struct {
		name  string
		cells int
		keys  []int
	}{
		{"empty", 64, nil},
		{"key 0", 64, []int{0}},
		{"last cell", 64, []int{63}},
		{"one key of 2^40", huge, []int{huge - 1}},
		{"every cell", 256, seq(0, 256)},
		{"every other cell", 4096, stride(0, 4096, 2)},
		{"a run at the top", 1 << 20, seq(1<<20-300, 1<<20)},
		{"random of 2^40", huge, randomKeys(rng, huge, 5000)},
		{"random of 2^16", 1 << 16, randomKeys(rng, 1<<16, 20000)},
	}
	ctx := context.Background()
	for _, set := range sets {
		vals := make([]float64, len(set.keys))
		want := make(map[int]float64, len(set.keys))
		for i, k := range set.keys {
			vals[i] = rng.NormFloat64()
			if i%7 == 3 {
				vals[i] = 0 // an explicit zero is a stored entry
			}
			want[k] = vals[i]
		}
		m := NewSorted(set.keys, vals)
		if buckets, _ := m.Buckets(); len(set.keys) > 0 && buckets > max(1, len(set.keys)/(bucketKeys/2)) {
			t.Fatalf("%s: %d keys in %d buckets", set.name, len(set.keys), buckets)
		}
		base, err := Build(set.cells, len(set.keys), walkOf(set.keys, vals))
		if err != nil {
			t.Fatal(err)
		}
		probe := probeKeys(&m, set.cells)
		for _, k := range probe {
			got, ok := m.Lookup(k)
			w, held := want[k]
			if ok != held || math.Float64bits(got) != math.Float64bits(w) {
				t.Fatalf("%s: Lookup(%d) = (%v, %v), want (%v, %v)", set.name, k, got, ok, w, held)
			}
		}
		// The base refuses the negative probe; every other key reads its value
		// or zero.
		probe = probe[:0]
		for _, k := range probeKeys(&m, set.cells) {
			if k >= 0 {
				probe = append(probe, k)
			}
		}
		dst := make([]float64, len(probe))
		if err := base.BatchGetCtx(ctx, probe, dst); err != nil {
			t.Fatal(err)
		}
		for i, k := range probe {
			if math.Float64bits(dst[i]) != math.Float64bits(want[k]) {
				t.Fatalf("%s: the %s base reads key %d as %v, want %v", set.name, Describe(base), k, dst[i], want[k])
			}
		}
	}
}

func seq(lo, hi int) []int { return stride(lo, hi, 1) }

func stride(lo, hi, step int) []int {
	var out []int
	for k := lo; k < hi; k += step {
		out = append(out, k)
	}
	return out
}

// randomKeys returns n distinct keys of [0, cells), ascending.
func randomKeys(rng *rand.Rand, cells, n int) []int {
	seen := make(map[int]bool, n)
	out := make([]int, 0, n)
	for len(out) < n {
		if k := rng.Int63n(int64(cells)); !seen[int(k)] {
			seen[int(k)] = true
			out = append(out, int(k))
		}
	}
	sort.Ints(out)
	return out
}

// TestEnumerationIsDeterministic: a sparse store enumerates in strictly
// ascending key order, whatever order its source map held the keys in.
func TestEnumerationIsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ref := make(map[int]float64)
	for i := 0; i < 5000; i++ {
		ref[rng.Intn(1<<22)] = rng.NormFloat64()
	}
	prev := -1
	if err := sparseOf(t, ref).Walk(func(k int, _ float64) bool {
		if k <= prev {
			t.Fatalf("key %d enumerated after key %d", k, prev)
		}
		prev = k
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

// TestNonzeroCountAndEnumerationAgree: the count, the enumeration and the
// reads of a sparse store built from a reference map with zeros among its
// values all say the same thing: the zeros are not stored.
func TestNonzeroCountAndEnumerationAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ref := make(map[int]float64)
	nonzero := 0
	for k := 0; k < 4096; k++ {
		switch d := float64(rng.Intn(3) - 1); {
		case d != 0:
			nonzero++
			fallthrough
		case rng.Intn(2) == 0:
			ref[k] = d
		}
	}
	s := sparseOf(t, ref)
	seen := 0
	s.Walk(func(k int, v float64) bool {
		if v == 0 || ref[k] != v {
			t.Fatalf("enumerates (%d, %v), reference %v", k, v, ref[k])
		}
		seen++
		return true
	})
	if seen != nonzero || s.NonzeroCount() != nonzero {
		t.Fatalf("enumerated %d, NonzeroCount %d, reference %d nonzero", seen, s.NonzeroCount(), nonzero)
	}
	keys := make([]int, 4096)
	for k := range keys {
		keys[k] = k
	}
	dst := make([]float64, len(keys))
	if err := s.BatchGetCtx(context.Background(), keys, dst); err != nil {
		t.Fatal(err)
	}
	for k, v := range dst {
		if v != ref[k] {
			t.Fatalf("key %d reads %v, reference %v", k, v, ref[k])
		}
	}
}

// TestBuildRefusesWhatItCannotServe, for both shapes: keys out of order or
// repeated, a key outside the domain, more keys than declared, and the
// walk's own error each return no store.
func TestBuildRefusesWhatItCannotServe(t *testing.T) {
	damage := errors.New("damaged block")
	for _, shape := range []struct {
		name  string
		cells int
	}{{"array", 8}, {"sparse", 1 << 20}} {
		for _, c := range []struct {
			name  string
			keys  []int
			count int
			walk  error
			want  string
		}{
			{"descending", []int{3, 2}, 4, nil, "keys must ascend"},
			{"repeated", []int{3, 3}, 4, nil, "keys must ascend"},
			{"repeated after a zero", []int{1, 5, 5}, 4, nil, "keys must ascend"},
			{"outside the domain", []int{3, shape.cells}, 4, nil, "out of range"},
			{"more than declared", []int{1, 2, 3}, 2, nil, "more than the 2"},
			{"the walk's error", []int{1}, 4, damage, "damaged block"},
		} {
			vals := make([]float64, len(c.keys))
			for i := range vals {
				vals[i] = float64(i + 1)
			}
			if c.name == "repeated after a zero" {
				vals[1] = 0
			}
			walk := walkOf(c.keys, vals)
			if c.walk != nil {
				walk = func(fn func(int, float64) bool) error { _ = walkOf(c.keys, vals)(fn); return c.walk }
			}
			s, err := Build(shape.cells, c.count, walk)
			if err == nil || !strings.Contains(err.Error(), c.want) || s != nil {
				t.Errorf("%s, %s: Build = (%v, %v), want no store and %q", shape.name, c.name, s, err, c.want)
			}
		}
	}
}
