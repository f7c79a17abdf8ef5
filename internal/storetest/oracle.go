// Package storetest holds what the store packages' tests share: the oracle
// store Map, a plain map that accumulates, with the tuple-insertion oracle
// (InsertTuple, DeleteTuple) that maintains it; Counting, which counts what
// a test asks of a bare store; and, in its tests, the one
// storage.Store contract matrix, every store type in the repository, local
// and remote, run against the same assertions. The matrix is here because no
// store package can import all the others without a cycle.
package storetest

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/sparse"
	"repro/internal/storage"
	"repro/internal/wavelet"
)

// Map is the oracle store: a Go map of the nonzero coefficients, which Add
// accumulates into (a sum that reaches zero leaves the map). It serves
// storage.Store and walks in ascending key order, so it can stand as a base
// anywhere; Base builds the real base store of its contents. Any number of
// goroutines may read it; Add needs exclusive access.
type Map struct {
	m map[int]float64
}

// NewMap returns an empty oracle store.
func NewMap() *Map { return &Map{m: make(map[int]float64)} }

var errNegativeKey = errors.New("key out of range (negative)")

// Add adds delta to the coefficient at key. A negative key panics: no
// retrieval could read it back.
func (m *Map) Add(key int, delta float64) {
	if key < 0 {
		panic(fmt.Sprintf("storetest: key %d out of range (negative)", key))
	}
	if v := m.m[key] + delta; v != 0 {
		m.m[key] = v
	} else {
		delete(m.m, key)
	}
}

// BatchGetCtx implements storage.Store; only a negative key is out of range.
func (m *Map) BatchGetCtx(ctx context.Context, keys []int, dst []float64) error {
	if len(keys) != len(dst) {
		panic("storetest: BatchGetCtx keys/dst length mismatch")
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	var failed []storage.KeyError
	for i, k := range keys {
		if k < 0 {
			failed = append(failed, storage.KeyError{Index: i, Key: k, Err: errNegativeKey})
			continue
		}
		dst[i] = m.m[k]
	}
	if failed != nil {
		return &storage.BatchError{Failed: failed}
	}
	return nil
}

// NonzeroCount implements storage.Store.
func (m *Map) NonzeroCount() int { return len(m.m) }

// Walk implements storage.Enumerable, in ascending key order.
func (m *Map) Walk(fn func(key int, value float64) bool) error {
	keys := make([]int, 0, len(m.m))
	for k := range m.m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		if !fn(k, m.m[k]) {
			break
		}
	}
	return nil
}

// Base builds the base store of the map's contents over a domain of cells
// cells (storage.Build: the array or the sparse store, by its rule).
func (m *Map) Base(cells int) storage.MemoryStore {
	s, err := storage.Build(cells, len(m.m), m.Walk)
	if err != nil {
		panic(fmt.Sprintf("storetest: %v", err))
	}
	return s
}

// InsertTuple maintains the oracle's transform under a tuple insertion:
// Δ ← Δ + δ_x implies Δ̂ ← Δ̂ + δ̂_x, and the impulse transform factors per
// dimension, giving O((L·log N)^d) coefficient updates — the
// update-efficiency argument of Section 2.1 (O(log^d N) for Haar). It is
// the single-tuple reference the multi-version store's batches are checked
// against.
func InsertTuple(m *Map, f *wavelet.Filter, dims []int, coords []int) error {
	return addImpulse(m, f, dims, coords, 1)
}

// DeleteTuple removes one occurrence of the tuple from the oracle's
// transform. It is the caller's responsibility that the tuple was present;
// the transform itself cannot tell.
func DeleteTuple(m *Map, f *wavelet.Filter, dims []int, coords []int) error {
	return addImpulse(m, f, dims, coords, -1)
}

func addImpulse(m *Map, f *wavelet.Filter, dims []int, coords []int, mult float64) error {
	if len(coords) != len(dims) {
		return fmt.Errorf("storetest: tuple has %d coordinates for %d dimensions", len(coords), len(dims))
	}
	factors := make([]sparse.Vector, len(dims))
	for i, n := range dims {
		if coords[i] < 0 || coords[i] >= n {
			return fmt.Errorf("storetest: coordinate %d = %d outside [0,%d)", i, coords[i], n)
		}
		v, err := f.ImpulseTransform(coords[i], n)
		if err != nil {
			return err
		}
		factors[i] = sparse.Vector(v)
	}
	return sparse.TensorProduct(factors, dims, func(key int, val float64) {
		m.Add(key, mult*val)
	})
}

var (
	_ storage.Store      = (*Map)(nil)
	_ storage.Enumerable = (*Map)(nil)
)
