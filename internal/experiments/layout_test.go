package experiments

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/penalty"
	"repro/internal/storage"
	"repro/internal/storetest"
)

// countArray counts what bc asks of the array beneath it.
func countArray(bc *blockCounter) *storetest.Counting {
	counted := storetest.NewCounting(bc.Store)
	bc.Store = counted
	return counted
}

// TestBlockCounterCountsDistinctBlocks: in key order a block of four keys is
// charged once for however many of its keys are read, and the next key past
// it opens a second block.
func TestBlockCounterCountsDistinctBlocks(t *testing.T) {
	bc := newBlockCounter([]float64{1, 2, 3, 4, 5, 6, 7, 8}, []int{0, 1, 2, 3, 4, 5, 6, 7}, 4)
	array := countArray(bc)
	ctx := context.Background()
	dst := make([]float64, 3)
	if err := bc.BatchGetCtx(ctx, []int{0, 1, 3}, dst); err != nil {
		t.Fatal(err)
	}
	if bc.blocks != 1 || dst[0] != 1 || dst[1] != 2 || dst[2] != 4 {
		t.Fatalf("keys 0, 1, 3: %d blocks, values %v; want 1 block, [1 2 4]", bc.blocks, dst)
	}
	if err := bc.BatchGetCtx(ctx, []int{4}, dst[:1]); err != nil {
		t.Fatal(err)
	}
	if bc.blocks != 2 || dst[0] != 5 {
		t.Fatalf("key 4: %d blocks, value %g; want 2 blocks, 5", bc.blocks, dst[0])
	}
	if got := array.Retrievals(); got != 4 {
		t.Fatalf("retrievals %d, want 4", got)
	}
}

// TestBlockCounterCountsPhysicalBlocks: under a permutation the counter
// charges the block holding a key's slot, so keys far apart in key order but
// co-located by the layout cost one block, once however often the block is
// read, and a key outside the layout fails as the array's range error without
// touching a block.
func TestBlockCounterCountsPhysicalBlocks(t *testing.T) {
	cells := []float64{10, 11, 12, 13, 14, 15}
	// Slots {0,1} hold keys 5 and 0, slots {2,3} keys 3 and 1, slots {4,5}
	// keys 4 and 2.
	bc := newBlockCounter(cells, []int{5, 0, 3, 1, 4, 2}, 2)
	array := countArray(bc)
	ctx := context.Background()

	dst := make([]float64, 3)
	if err := bc.BatchGetCtx(ctx, []int{0, 5, 0}, dst); err != nil {
		t.Fatal(err)
	}
	if bc.blocks != 1 || dst[0] != 10 || dst[1] != 15 || dst[2] != 10 {
		t.Fatalf("keys 0, 5, 0: %d blocks, values %v; want 1 block, [10 15 10]", bc.blocks, dst)
	}

	dst = make([]float64, 4)
	err := bc.BatchGetCtx(ctx, []int{1, 9, -1, 2}, dst)
	var be *storage.BatchError
	if !errors.As(err, &be) || len(be.Failed) != 2 || be.Failed[0].Index != 1 || be.Failed[1].Index != 2 {
		t.Fatalf("keys 1, 9, -1, 2: err %v, want positions 1 and 2 out of range", err)
	}
	if bc.blocks != 3 || dst[0] != 11 || dst[3] != 12 {
		t.Fatalf("keys 1, 9, -1, 2: %d blocks, values %v; want 3 blocks, 11 and 12", bc.blocks, dst)
	}
	if got := array.Retrievals(); got != 7 {
		t.Fatalf("retrievals %d, want 7: the array counts coefficients, not blocks", got)
	}
}

// TestBlockOrderRunMatchesExact: draining the plan a block at a time answers
// every query exactly, reads each plan coefficient once, and fetches exactly
// the distinct blocks the plan's keys sit in.
func TestBlockOrderRunMatchesExact(t *testing.T) {
	w := quickWorkload(t)
	cells, err := w.Dist.Transform(w.Config.Filter)
	if err != nil {
		t.Fatal(err)
	}
	natural := make([]int, len(cells))
	for i := range natural {
		natural[i] = i
	}
	bc := newBlockCounter(cells, natural, 64)
	array := countArray(bc)
	estimates, _, err := blockOrderRun(w.Plan, penalty.SSE{}, bc, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range estimates {
		if math.Abs(v-w.Truth[i]) > 1e-6*(1+math.Abs(w.Truth[i])) {
			t.Fatalf("query %d: block order estimate %g, truth %g", i, v, w.Truth[i])
		}
	}
	if got, want := array.Retrievals(), int64(w.Plan.DistinctCoefficients()); got != want {
		t.Fatalf("retrieved %d coefficients, want the plan's %d distinct", got, want)
	}
	distinct := map[int]struct{}{}
	for _, key := range planKeys(w.Plan) {
		distinct[bc.block(key)] = struct{}{}
	}
	if bc.blocks != int64(len(distinct)) {
		t.Fatalf("fetched %d blocks, want the %d distinct blocks of the plan's keys", bc.blocks, len(distinct))
	}
}

// TestBlockOrderRunFewerIOsThanCoefficientRun: with 256 coefficients to a
// block, the block-order run fetches fewer blocks than a run paying one I/O
// per coefficient would.
func TestBlockOrderRunFewerIOsThanCoefficientRun(t *testing.T) {
	w := quickWorkload(t)
	cells, err := w.Dist.Transform(w.Config.Filter)
	if err != nil {
		t.Fatal(err)
	}
	natural := make([]int, len(cells))
	for i := range natural {
		natural[i] = i
	}
	bc := newBlockCounter(cells, natural, 256)
	if _, _, err := blockOrderRun(w.Plan, penalty.SSE{}, bc, 0); err != nil {
		t.Fatal(err)
	}
	if distinct := int64(w.Plan.DistinctCoefficients()); bc.blocks >= distinct {
		t.Fatalf("fetched %d blocks, want fewer than the %d coefficients", bc.blocks, distinct)
	}
}
