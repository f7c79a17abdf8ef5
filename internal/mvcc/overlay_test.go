package mvcc

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/storage"
	"repro/internal/wavelet"
)

// probeKeys is every key a lookup in o could get wrong: each stored key and
// its neighbours, the first key of every bucket and the one before it, the
// domain's ends, one past the last bucket and a negative key.
func probeKeys(o *overlay, cells int) []int {
	probe := []int{0, 1, cells - 1, cells - 2, -1}
	for _, k := range o.keys {
		probe = append(probe, k-1, k, k+1)
	}
	for b := 0; b < len(o.dir); b++ {
		probe = append(probe, b<<o.shift-1, b<<o.shift)
	}
	kept := probe[:0]
	for _, k := range probe {
		if k >= -1 && k < cells {
			kept = append(kept, k)
		}
	}
	return kept
}

// TestOverlayLookupMatchesAMap: an overlay finds exactly the keys it was
// built from, with their bits, at both ends of the domain and on both sides
// of every bucket boundary, and its directory grows with its key count, not
// with the domain: a 2⁴⁰-cell domain holding one key has one bucket.
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
		o := newOverlay(set.keys, vals)
		if buckets := len(o.dir) - 1; len(set.keys) > 0 && buckets > max(1, len(set.keys)/(bucketKeys/2)) {
			t.Fatalf("%s: %d keys in %d buckets", set.name, len(set.keys), buckets)
		}
		for _, k := range probeKeys(&o, set.cells) {
			got, ok := o.lookup(k)
			w, held := want[k]
			if ok != held || math.Float64bits(got) != math.Float64bits(w) {
				t.Fatalf("%s: lookup(%d) = (%v, %v), want (%v, %v)", set.name, k, got, ok, w, held)
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

// TestOverlayScriptsMatchAnOracle runs random scripts of Apply and Compact —
// batches that cancel to explicit zeros among them — against a plain map
// that adds each batch's delta to what it holds, and compares bits after
// every step: reads of every key a lookup could get wrong, the view's
// enumeration, and the layer counts. One domain is 2⁴⁰ cells.
func TestOverlayScriptsMatchAnOracle(t *testing.T) {
	ctx := context.Background()
	for _, dims := range [][]int{{16, 16}, {1 << 20, 1 << 20}} {
		cells := dims[0] * dims[1]
		shadowed, buckets := false, 0 // what the scripts reached, lest they be vacuous
		for script := int64(1); script <= 6; script++ {
			rng := rand.New(rand.NewSource(script))
			s, err := New(storage.NewHashStore(), wavelet.Haar, dims, 0, 0, Config{DisableAutoCompact: true})
			if err != nil {
				t.Fatal(err)
			}
			oracle := map[int]float64{}
			written := map[int]bool{} // keys set since the last fold
			layers := 0
			var applied [][]int // tuples in the store, so a batch can take some back
			coord := func() []int {
				switch rng.Intn(5) {
				case 0:
					return []int{0, 0}
				case 1:
					return []int{dims[0] - 1, dims[1] - 1} // under key cells−1
				}
				return []int{rng.Intn(dims[0]), rng.Intn(dims[1])}
			}
			for step := 0; step < 40; step++ {
				if rng.Intn(6) == 0 {
					if err := s.Compact(ctx); err != nil {
						t.Fatal(err)
					}
					written, layers = map[int]bool{}, 0
				} else {
					b := NewBatch()
					for i := rng.Intn(4); i >= 0; i-- {
						if len(applied) > 0 && rng.Intn(3) == 0 {
							j := rng.Intn(len(applied))
							b.Remove(applied[j]) // cancels that tuple's coefficients
							applied = append(applied[:j], applied[j+1:]...)
							continue
						}
						c := coord()
						b.Add(c, 1)
						applied = append(applied, c)
					}
					delta, err := b.Delta(wavelet.Haar, dims)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := s.Apply(ctx, b); err != nil {
						t.Fatal(err)
					}
					for k, d := range delta {
						oracle[k] += d
						written[k] = true
					}
					layers++
				}

				var kept []int
				for _, k := range probeKeys(&s.head.Load().ov, cells) {
					if k >= 0 {
						kept = append(kept, k)
					}
				}
				for k := range oracle {
					kept = append(kept, k)
				}
				got := make([]float64, len(kept))
				if err := s.BatchGetCtx(ctx, kept, got); err != nil {
					t.Fatal(err)
				}
				for i, k := range kept {
					if math.Float64bits(got[i]) != math.Float64bits(oracle[k]) {
						t.Fatalf("dims %v script %d step %d: key %d reads %v, want %v", dims, script, step, k, got[i], oracle[k])
					}
				}
				walked := dump(s)
				for k, v := range oracle {
					if w, ok := walked[k]; v != 0 && (!ok || math.Float64bits(w) != math.Float64bits(v)) {
						t.Fatalf("dims %v script %d step %d: walk gives key %d as (%v, %v), want %v", dims, script, step, k, w, ok, v)
					}
				}
				for k := range walked {
					if oracle[k] == 0 {
						t.Fatalf("dims %v script %d step %d: walk gives key %d, which reads 0", dims, script, step, k)
					}
				}
				if st := s.Stats(); st.Layers != layers || st.LayerKeys != len(written) {
					t.Fatalf("dims %v script %d step %d: %d layers of %d keys, want %d of %d", dims, script, step, st.Layers, st.LayerKeys, layers, len(written))
				}
				h := s.head.Load()
				buckets = max(buckets, len(h.ov.dir)-1)
				for k := range written {
					shadowed = shadowed || oracle[k] == 0 && storage.Get(h.rawBase, k) != 0
				}
			}
		}
		if !shadowed || buckets < 4 {
			t.Fatalf("dims %v: an explicit zero over a base value: %v; most buckets: %d", dims, shadowed, buckets)
		}
	}
}
