package storage

import (
	"context"
	"errors"
	"fmt"
)

// RemappedStore applies a relocation of coefficients to new physical slots —
// a disk layout. Logical keys (the transform positions the engine uses) are
// translated through the layout before reaching the wrapped store, so
// wrapping a RemappedStore in a BlockStore measures how many *blocks* a
// workload touches under that layout: exactly the question the paper's
// conclusion poses ("development of optimal disk layout strategies for
// wavelet data").
type RemappedStore struct {
	inner Store
	// slotOf maps logical key → physical slot.
	slotOf []int32
}

// NewRemappedStore builds the store from a layout: layout[slot] = logical
// key stored in that physical slot. layout must be a permutation of
// [0, len(layout)).
func NewRemappedStore(inner Store, layout []int) (*RemappedStore, error) {
	slotOf := make([]int32, len(layout))
	seen := make([]bool, len(layout))
	for slot, key := range layout {
		if key < 0 || key >= len(layout) {
			return nil, fmt.Errorf("storage: layout entry %d out of range", key)
		}
		if seen[key] {
			return nil, fmt.Errorf("storage: layout repeats key %d", key)
		}
		seen[key] = true
		slotOf[key] = int32(slot)
	}
	return &RemappedStore{inner: inner, slotOf: slotOf}, nil
}

// Slot returns the physical slot of a logical key.
func (s *RemappedStore) Slot(key int) int {
	if key < 0 || key >= len(s.slotOf) {
		panic(fmt.Sprintf("storage: key %d out of range [0,%d)", key, len(s.slotOf)))
	}
	return int(s.slotOf[key])
}

// BatchGetCtx implements Store: reads the physical slots holding the logical
// keys. A logical key outside the layout is sent down as slot -1, which
// every store rejects as out of range, so its failure arrives in the wrapped
// store's *BatchError like any other and only needs its Key restored.
func (s *RemappedStore) BatchGetCtx(ctx context.Context, keys []int, dst []float64) error {
	slots := make([]int, len(keys))
	for i, k := range keys {
		slots[i] = -1
		if k >= 0 && k < len(s.slotOf) {
			slots[i] = int(s.slotOf[k])
		}
	}
	err := s.inner.BatchGetCtx(ctx, slots, dst)
	var be *BatchError
	if errors.As(err, &be) {
		for i := range be.Failed {
			be.Failed[i].Key = keys[be.Failed[i].Index]
		}
	}
	return err
}

// Retrievals implements Store.
func (s *RemappedStore) Retrievals() int64 { return s.inner.Retrievals() }

// ResetStats implements Store.
func (s *RemappedStore) ResetStats() { s.inner.ResetStats() }

// NonzeroCount implements Store.
func (s *RemappedStore) NonzeroCount() int { return s.inner.NonzeroCount() }

// ApplyLayout physically rearranges a dense coefficient array according to
// the layout: out[slot] = cells[layout[slot]].
func ApplyLayout(cells []float64, layout []int) ([]float64, error) {
	if len(layout) != len(cells) {
		return nil, fmt.Errorf("storage: layout length %d != cells %d", len(layout), len(cells))
	}
	out := make([]float64, len(cells))
	for slot, key := range layout {
		if key < 0 || key >= len(cells) {
			return nil, fmt.Errorf("storage: layout entry %d out of range", key)
		}
		out[slot] = cells[key]
	}
	return out, nil
}

var _ Store = (*RemappedStore)(nil)
