package experiments

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/penalty"
	"repro/internal/storage"
	"repro/internal/wavelet"
)

// The paper's conclusion calls for "the development of optimal disk layout
// strategies for wavelet data", for "combining this analysis with workload
// information", and for generalizing "importance functions to disk blocks
// rather than individual tuples". This experiment measures three layouts
// under a simulated block store, and one block-at-a-time progression:
//
//   - natural: coefficients stored in row-major key order (the layout a
//     naïve dump of the transformed array produces);
//   - level-major: coefficients sorted by total resolution level, coarsest
//     first — a workload-independent layout exploiting that every range
//     query needs the coarse coefficients;
//   - importance: coefficients sorted by the workload's importance function
//     — the workload-aware layout the conclusion envisions;
//   - natural, block order: the natural layout read a whole block at a time,
//     most important block first, where a block's importance is the sum of
//     the importances of the master-list entries it holds — block-level
//     importance without moving a coefficient.
//
// The metric is the number of distinct blocks fetched to reach exactness,
// and to reach 10% of the master list progressively.

// LayoutRow is the measurement for one layout.
type LayoutRow struct {
	Name          string
	BlocksExact   int64
	BlocksAt10Pct int64
}

// RunLayoutStudy measures the three layouts and the block-order progression
// on the shared workload with the given block size (coefficients per block).
func RunLayoutStudy(w *Workload, blockSize int) ([]LayoutRow, error) {
	if blockSize < 1 {
		return nil, fmt.Errorf("experiments: block size must be positive, got %d", blockSize)
	}
	cells, err := w.Dist.Transform(w.Config.Filter)
	if err != nil {
		return nil, err
	}
	total := len(cells)

	// Layout 1: natural key order.
	natural := make([]int, total)
	for i := range natural {
		natural[i] = i
	}

	// Layout 2: level-major. A coefficient's resolution is the sum of its
	// per-dimension pyramid levels (0 = coarsest).
	dims := w.Schema.Sizes
	coords := make([]int, len(dims))
	levelOf := make([]int, total)
	for k := range levelOf {
		wavelet.Unflatten(k, dims, coords)
		lv := 0
		for i, c := range coords {
			lv += wavelet.PositionLevel(dims[i], c)
		}
		levelOf[k] = lv
	}
	levelMajor := append([]int(nil), natural...)
	sort.SliceStable(levelMajor, func(a, b int) bool {
		if levelOf[levelMajor[a]] != levelOf[levelMajor[b]] {
			return levelOf[levelMajor[a]] < levelOf[levelMajor[b]]
		}
		return levelMajor[a] < levelMajor[b]
	})

	// Layout 3: workload importance order; keys outside the plan follow in
	// level-major order.
	imp := make([]float64, total)
	for k := range imp {
		imp[k] = math.Inf(-1)
	}
	imps := w.Plan.Importances(penalty.SSE{})
	keys := planKeys(w.Plan)
	for i, k := range keys {
		imp[k] = imps[i]
	}
	importance := append([]int(nil), levelMajor...)
	sort.SliceStable(importance, func(a, b int) bool {
		ia, ib := imp[importance[a]], imp[importance[b]]
		if ia != ib {
			return ia > ib
		}
		return false // keep level-major order among ties / non-plan keys
	})

	// Sanity: neither a layout nor the block order may change answers.
	exact := func(name string, estimates []float64) error {
		for i, v := range estimates {
			if math.Abs(v-w.Truth[i]) > 1e-6*(1+math.Abs(w.Truth[i])) {
				return fmt.Errorf("experiments: layout %s corrupted query %d", name, i)
			}
		}
		return nil
	}
	tenth := w.Plan.DistinctCoefficients() / 10
	layouts := []struct {
		name   string
		layout []int
	}{
		{"natural", natural},
		{"level-major", levelMajor},
		{"importance", importance},
	}
	rows := make([]LayoutRow, 0, len(layouts)+1)
	for _, l := range layouts {
		bc := newBlockCounter(cells, l.layout, blockSize)
		run := core.NewRun(w.Plan, penalty.SSE{}, bc)
		if _, err := run.StepBatchCtx(context.Background(), tenth); err != nil {
			return nil, err
		}
		at10 := bc.blocks
		if err := run.RunToCompletionCtx(context.Background()); err != nil {
			return nil, err
		}
		if err := exact(l.name, run.Estimates()); err != nil {
			return nil, err
		}
		rows = append(rows, LayoutRow{Name: l.name, BlocksExact: bc.blocks, BlocksAt10Pct: at10})
	}

	const blockOrder = "natural, block order"
	bc := newBlockCounter(cells, natural, blockSize)
	estimates, at10, err := blockOrderRun(w.Plan, penalty.SSE{}, bc, tenth)
	if err != nil {
		return nil, err
	}
	if err := exact(blockOrder, estimates); err != nil {
		return nil, err
	}
	return append(rows, LayoutRow{Name: blockOrder, BlocksExact: bc.blocks, BlocksAt10Pct: at10}), nil
}

// blockCounter serves the transform in key order and counts the distinct
// blocks its retrievals touch when key k is stored in physical slot
// slotOf[k] and slots are grouped blockSize to a block. A block read once
// stays buffered, so reading it again costs nothing. A key outside the
// layout touches no block: the array reports it out of range. Like every
// store it takes concurrent readers: the count is kept under mu.
type blockCounter struct {
	storage.Store // the ArrayStore of the transform
	slotOf        []int
	blockSize     int

	mu      sync.Mutex
	fetched []bool // by block
	blocks  int64
}

// newBlockCounter lays cells out by layout (layout[slot] = the key stored in
// that slot; a permutation of the keys) in blocks of blockSize slots.
func newBlockCounter(cells []float64, layout []int, blockSize int) *blockCounter {
	slotOf := make([]int, len(layout))
	for slot, key := range layout {
		slotOf[key] = slot
	}
	return &blockCounter{
		Store:     storage.NewArrayStore(cells),
		slotOf:    slotOf,
		blockSize: blockSize,
		fetched:   make([]bool, (len(layout)+blockSize-1)/blockSize),
	}
}

// block returns the block that holds key.
func (bc *blockCounter) block(key int) int { return bc.slotOf[key] / bc.blockSize }

// BatchGetCtx implements storage.Store: it charges the blocks the keys sit
// in, then reads them from the array.
func (bc *blockCounter) BatchGetCtx(ctx context.Context, keys []int, dst []float64) error {
	bc.mu.Lock()
	defer bc.mu.Unlock()
	for _, k := range keys {
		if k < 0 || k >= len(bc.slotOf) {
			continue
		}
		if b := bc.block(k); !bc.fetched[b] {
			bc.fetched[b] = true
			bc.blocks++
		}
	}
	return bc.Store.BatchGetCtx(ctx, keys, dst)
}

// blockOrderRun drains plan through bc a whole block at a time, the
// progression the paper's conclusion sketches for disk blocks: an entry
// belongs to the block holding its coefficient, a block's importance is the
// sum of its entries' importances under pen, and blocks are fetched most
// important first (ties in block order). It returns the estimates at
// exhaustion and the blocks fetched by the time tenth coefficients had been
// retrieved.
func blockOrderRun(plan *core.Plan, pen penalty.Penalty, bc *blockCounter, tenth int) ([]float64, int64, error) {
	type entry struct {
		key    int
		idxs   []int32
		coeffs []float64
	}
	imps := plan.Importances(pen)
	entries := make([][]entry, len(bc.fetched))
	weight := make([]float64, len(bc.fetched))
	i := 0
	plan.ForEachEntry(func(key int, idxs []int32, coeffs []float64) {
		b := bc.block(key)
		entries[b] = append(entries[b], entry{key, idxs, coeffs})
		weight[b] += imps[i]
		i++
	})
	var order []int
	for b, es := range entries {
		if len(es) > 0 {
			order = append(order, b)
		}
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(weight[b], weight[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})

	estimates := make([]float64, plan.NumQueries())
	var (
		keys      []int
		vals      []float64
		retrieved int
		at10      int64
	)
	for _, b := range order {
		keys, vals = keys[:0], vals[:0]
		for _, e := range entries[b] {
			keys = append(keys, e.key)
			vals = append(vals, 0)
		}
		if err := bc.BatchGetCtx(context.Background(), keys, vals); err != nil {
			return nil, 0, err
		}
		for j, e := range entries[b] {
			for k, q := range e.idxs {
				estimates[q] += e.coeffs[k] * vals[j]
			}
		}
		if retrieved < tenth && retrieved+len(keys) >= tenth {
			at10 = bc.blocks
		}
		retrieved += len(keys)
	}
	return estimates, at10, nil
}

// planKeys exposes the plan's distinct keys in the same order Importances
// reports them.
func planKeys(p *core.Plan) []int {
	keys := make([]int, 0, p.DistinctCoefficients())
	p.ForEachEntry(func(key int, _ []int32, _ []float64) {
		keys = append(keys, key)
	})
	return keys
}

// WriteLayoutTable renders the study.
func WriteLayoutTable(out io.Writer, rows []LayoutRow, blockSize int) {
	fmt.Fprintf(out, "Disk layout study (block size %d coefficients; lower is better):\n", blockSize)
	fmt.Fprintf(out, "  %-14s %14s %16s\n", "layout", "blocks@10%", "blocks to exact")
	for _, r := range rows {
		fmt.Fprintf(out, "  %-14s %14d %16d\n", r.Name, r.BlocksAt10Pct, r.BlocksExact)
	}
}
