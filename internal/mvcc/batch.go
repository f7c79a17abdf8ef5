// Package mvcc is the live-update tier: a multi-version coefficient store
// in which writers publish immutable versions and readers evaluate against
// immutable snapshots, so long progressive drains stay bit-stable while
// update batches land concurrently.
//
// The write unit is a Batch of tuple deltas. Applying a batch transforms the
// whole delta distribution in one sparse pass — per-dimension impulse
// transforms (the transform-of-deltas machinery of internal/wavelet/lazy.go)
// are memoized across the batch and coincident tuples merge before the
// tensor product runs — and publishes a version whose overlay is the
// previous one merged with the *absolute values* of every touched
// coefficient: one key-sorted array of everything written since the base
// was folded, found through a bucket directory. A read probes that overlay
// once before the frozen base store, however many batches it holds; a
// background compactor folds it into a fresh base and swaps that in
// atomically. See DESIGN.md §16.
package mvcc

import (
	"fmt"

	"repro/internal/sparse"
	"repro/internal/wavelet"
)

// Batch accumulates tuple-frequency deltas to be applied atomically: the
// batch either publishes as one version or fails as a whole.
// Weights are frequency deltas — Add(coords, 1) inserts one occurrence,
// Add(coords, -1) (or Remove) deletes one, and fractional or bulk weights
// (Add(coords, 42)) are legal. A Batch is not safe for concurrent use; build
// it on one goroutine and hand it to Apply.
type Batch struct {
	ops []op
}

type op struct {
	coords []int
	weight float64
}

// NewBatch returns an empty batch.
func NewBatch() *Batch { return &Batch{} }

// Add records a frequency delta for the tuple at coords. The coordinate
// slice is copied, so the caller may reuse it. Returns the batch for
// chaining.
func (b *Batch) Add(coords []int, weight float64) *Batch {
	c := make([]int, len(coords))
	copy(c, coords)
	b.ops = append(b.ops, op{coords: c, weight: weight})
	return b
}

// Remove records the deletion of one occurrence of the tuple at coords —
// shorthand for Add(coords, -1). The caller is responsible for the tuple
// actually being present; the transform cannot tell.
func (b *Batch) Remove(coords []int) *Batch { return b.Add(coords, -1) }

// Len returns the number of tuple operations recorded.
func (b *Batch) Len() int { return len(b.ops) }

// TupleWeight returns the net tuple-count delta of the batch (Σ weights).
func (b *Batch) TupleWeight() float64 {
	var w float64
	for _, o := range b.ops {
		w += o.weight
	}
	return w
}

// Reset empties the batch for reuse, keeping its backing storage.
func (b *Batch) Reset() { b.ops = b.ops[:0] }

// cellKey flattens coords into the row-major cell index used for merging
// coincident tuples (same layout as dataset cell indexing: last dimension
// fastest).
func cellKey(coords, dims []int) int {
	key := 0
	for i, c := range coords {
		key = key*dims[i] + c
	}
	return key
}

// Delta computes the sparse coefficient delta of the whole batch: the
// wavelet transform of the batch's tuple-frequency deltas under filter f on
// the given power-of-two dims. Coincident tuples merge before transforming
// and per-dimension impulse transforms are computed once per distinct
// coordinate value, so a batch with repeated attribute values pays far less
// than Len() single-tuple transforms. The result maps flat coefficient key →
// delta and is deterministic for a given batch content and order.
//
// A single-op batch produces exactly the per-key values of the single-tuple
// path (the test oracle's storetest.InsertTuple emits the same impulse
// tensor product), so routing Insert/Delete through Delta is bit-identical
// to inserting one tuple at a time.
func (b *Batch) Delta(f *wavelet.Filter, dims []int) (map[int]float64, error) {
	if f == nil {
		return nil, fmt.Errorf("mvcc: nil filter")
	}
	// Merge coincident tuples in first-appearance order (deterministic).
	type cell struct {
		coords []int
		weight float64
	}
	merged := make(map[int]int, len(b.ops)) // cellKey → index into cells
	cells := make([]cell, 0, len(b.ops))
	for i, o := range b.ops {
		if len(o.coords) != len(dims) {
			return nil, fmt.Errorf("mvcc: op %d has %d coordinates for %d dimensions", i, len(o.coords), len(dims))
		}
		for d, c := range o.coords {
			if c < 0 || c >= dims[d] {
				return nil, fmt.Errorf("mvcc: op %d coordinate %d = %d outside [0,%d)", i, d, c, dims[d])
			}
		}
		k := cellKey(o.coords, dims)
		if j, ok := merged[k]; ok {
			cells[j].weight += o.weight
		} else {
			merged[k] = len(cells)
			cells = append(cells, cell{coords: o.coords, weight: o.weight})
		}
	}
	// One sparse pass over the merged cells: memoized per-dimension impulse
	// factors, tensor product accumulated into the delta map. Each cell's
	// tensor product emits every flat key at most once, so per-key
	// accumulation order follows cell order and the result is deterministic.
	memo := make([]map[int]sparse.Vector, len(dims))
	for d := range memo {
		memo[d] = make(map[int]sparse.Vector)
	}
	factors := make([]sparse.Vector, len(dims))
	delta := make(map[int]float64, len(cells)*4)
	for _, c := range cells {
		if c.weight == 0 {
			continue // cancelled in-batch (insert+delete of one tuple)
		}
		for d, x := range c.coords {
			fac, ok := memo[d][x]
			if !ok {
				m, err := f.ImpulseTransform(x, dims[d])
				if err != nil {
					return nil, err
				}
				fac = sparse.Vector(m)
				memo[d][x] = fac
			}
			factors[d] = fac
		}
		w := c.weight
		if err := sparse.TensorProduct(factors, dims, func(key int, val float64) {
			delta[key] += w * val
		}); err != nil {
			return nil, err
		}
	}
	return delta, nil
}
