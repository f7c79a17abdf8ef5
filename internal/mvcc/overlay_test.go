package mvcc

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/storage"
	"repro/internal/storetest"
	"repro/internal/wavelet"
)

// probeKeys is every key a lookup in o could get wrong: each stored key and
// its neighbours, the first key of every bucket and the one before it, the
// domain's ends, one past the last bucket and a negative key.
func probeKeys(o *storage.Sorted, cells int) []int {
	probe := []int{0, 1, cells - 1, cells - 2, -1}
	for i := 0; i < o.Len(); i++ {
		k, _ := o.Entry(i)
		probe = append(probe, k-1, k, k+1)
	}
	buckets, shift := o.Buckets()
	for b := 0; b <= buckets; b++ {
		probe = append(probe, b<<shift-1, b<<shift)
	}
	kept := probe[:0]
	for _, k := range probe {
		if k >= -1 && k < cells {
			kept = append(kept, k)
		}
	}
	return kept
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
			s, err := New(storetest.NewMap(), wavelet.Haar, dims, 0, 0, Config{DisableAutoCompact: true})
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
				n, _ := h.ov.Buckets()
				buckets = max(buckets, n)
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
