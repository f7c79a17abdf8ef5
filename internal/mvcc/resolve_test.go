package mvcc

import (
	"context"
	"errors"
	"testing"

	"repro/internal/storage"
	"repro/internal/wavelet"
)

// TestCompactionTargetFollowsTheLoadersRule: the fold writes into what
// storage.NewMemoryStore picks for the domain and the snapshot's nonzero
// count — the array for a dense view, the table for a sparse one — and the
// target holds exactly that count.
func TestCompactionTargetFollowsTheLoadersRule(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		name   string
		dims   []int
		tuples int
		array  bool
	}{
		{"dense", []int{8, 8}, 24, true},    // Haar of 24 tuples fills most of 64 cells
		{"sparse", []int{64, 64}, 3, false}, // 3 tuples touch ≤ 147 of 4096
	} {
		s, err := New(storage.NewHashStore(), wavelet.Haar, c.dims, 0, 0, Config{DisableAutoCompact: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < c.tuples; i++ {
			coords := []int{(i * 5) % c.dims[0], (i * 11) % c.dims[1]}
			if _, err := s.Apply(ctx, NewBatch().Add(coords, 1)); err != nil {
				t.Fatal(err)
			}
		}
		want := dump(s)
		if err := s.Compact(ctx); err != nil {
			t.Fatal(err)
		}
		base := s.head.Load().rawBase
		if _, isArray := base.(*storage.ArrayStore); isArray != c.array {
			t.Fatalf("%s: %d coefficients of %d cells compacted into %T", c.name, len(want), s.cells, base)
		}
		if base.NonzeroCount() != len(want) || s.NonzeroCount() != len(want) {
			t.Fatalf("%s: target holds %d coefficients, view says %d, enumeration %d",
				c.name, base.NonzeroCount(), s.NonzeroCount(), len(want))
		}
		got := dump(s)
		for k := range allKeys(want, got) {
			if want[k] != got[k] {
				t.Fatalf("%s: key %d: %v before, %v after compaction", c.name, k, want[k], got[k])
			}
		}
	}
}

// failKeys fails the listed keys of every batch, per key.
type failKeys struct {
	storage.Store
	bad map[int]bool
}

var errBadKey = errors.New("bad key")

func (f *failKeys) BatchGetCtx(ctx context.Context, keys []int, dst []float64) error {
	if err := f.Store.BatchGetCtx(ctx, keys, dst); err != nil {
		return err
	}
	var failed []storage.KeyError
	for i, k := range keys {
		if f.bad[k] {
			failed = append(failed, storage.KeyError{Index: i, Key: k, Err: errBadKey})
		}
	}
	if failed == nil {
		return nil
	}
	return &storage.BatchError{Failed: failed}
}

// TestResolveReportsBaseFailuresAtCallerPositions, with and without an
// overlay: a view with an empty overlay hands the batch straight to its base,
// one with entries asks it for the overlay's misses only — either way a per-key
// failure names the caller's position, and the rest of dst is valid.
func TestResolveReportsBaseFailuresAtCallerPositions(t *testing.T) {
	ctx := context.Background()
	s := newTestStore(t, Config{})
	var baseKeys []int
	if err := s.Walk(func(k int, _ float64) bool {
		baseKeys = append(baseKeys, k)
		return len(baseKeys) < 6
	}); err != nil {
		t.Fatal(err)
	}
	bad := map[int]bool{baseKeys[1]: true, baseKeys[4]: true}
	s.SetBaseChain(func(raw storage.Store) storage.Store { return &failKeys{Store: raw, bad: bad} })

	check := func(when string) {
		t.Helper()
		want := dump(s)
		dst := make([]float64, len(baseKeys))
		err := s.View().BatchGetCtx(ctx, baseKeys, dst)
		var be *storage.BatchError
		if !errors.As(err, &be) || len(be.Failed) != 2 {
			t.Fatalf("%s: err = %v, want a BatchError of two keys", when, err)
		}
		for i, at := range []int{1, 4} {
			if ke := be.Failed[i]; ke.Index != at || ke.Key != baseKeys[at] || !errors.Is(ke.Err, errBadKey) {
				t.Fatalf("%s: failure %d = %+v, want position %d (key %d)", when, i, ke, at, baseKeys[at])
			}
		}
		for i, k := range baseKeys {
			if !bad[k] && dst[i] != want[k] {
				t.Fatalf("%s: position %d (key %d) = %v, want %v", when, i, k, dst[i], want[k])
			}
		}
	}
	check("no layers")
	// An overlay entry at baseKeys[0] shifts every later key's sub-batch
	// position.
	cur := s.head.Load()
	nv := *cur
	nv.version, nv.ov = 1, newOverlay([]int{baseKeys[0]}, []float64{42})
	s.head.Store(&nv)
	check("one overlay entry")
}

// TestResolveAllocatesPerCallNotPerKey: nothing when there is no overlay to
// consult, three scratch slices when there is, at any batch size.
func TestResolveAllocatesPerCallNotPerKey(t *testing.T) {
	ctx := context.Background()
	s, err := New(storage.NewHashStore(), wavelet.Haar, []int{64, 64}, 0, 0, Config{DisableAutoCompact: true})
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		keys, dst := make([]int, n), make([]float64, n)
		for i := range keys {
			keys[i] = (i * 13) % (64 * 64)
		}
		v := s.View()
		return testing.AllocsPerRun(20, func() {
			if err := v.BatchGetCtx(ctx, keys, dst); err != nil {
				t.Fatal(err)
			}
		})
	}
	if got := allocs(1024); got != 0 {
		t.Fatalf("a view without layers allocates %v objects per batch", got)
	}
	if _, err := s.Apply(ctx, NewBatch().Add([]int{3, 9}, 1)); err != nil {
		t.Fatal(err)
	}
	if small, large := allocs(64), allocs(4096); small != large || large > 3 {
		t.Fatalf("a layered view allocates %v objects for 64 keys and %v for 4096; want equal and at most 3", small, large)
	}
}
