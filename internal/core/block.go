package core

import (
	"cmp"
	"slices"

	"repro/internal/penalty"
	"repro/internal/storage"
)

// BlockRun implements the extension sketched in the paper's conclusion
// ("generalize importance functions to disk blocks rather than individual
// tuples"): master-list entries are grouped by the disk block that holds
// them, block importance is the sum of its entries' importances, and the
// progression fetches block-at-a-time in descending block importance. Under
// a block I/O cost model this retrieves the most useful blocks first while
// still advancing every query an entry serves.
type BlockRun struct {
	plan      *Plan
	store     *storage.BlockStore
	order     [][]int // entry indices per block, most important block first
	pos       int
	estimates []float64
	retrieved int
}

// NewBlockRun groups the plan's entries by block of the store and orders
// blocks by aggregate importance under the penalty.
func NewBlockRun(plan *Plan, pen penalty.Penalty, store *storage.BlockStore) *BlockRun {
	imps := plan.Importances(pen)
	byBlock := make(map[int][]int)
	blockImp := make(map[int]float64)
	for i, key := range plan.keys {
		b := store.Block(key)
		byBlock[b] = append(byBlock[b], i)
		blockImp[b] += imps[i]
	}
	blocks := make([]int, 0, len(byBlock))
	for b := range byBlock {
		blocks = append(blocks, b)
	}
	slices.SortFunc(blocks, func(a, b int) int {
		if c := cmp.Compare(blockImp[b], blockImp[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	order := make([][]int, len(blocks))
	for i, b := range blocks {
		order[i] = byBlock[b]
	}
	return &BlockRun{
		plan:      plan,
		store:     store,
		order:     order,
		estimates: make([]float64, plan.NumQueries()),
	}
}

// Step fetches the next block and applies every master-list entry stored in
// it. It returns false when all blocks have been consumed.
func (r *BlockRun) Step() bool {
	if r.pos >= len(r.order) {
		return false
	}
	for _, i := range r.order[r.pos] {
		v := storage.Get(r.store, r.plan.keys[i])
		r.retrieved++
		if v == 0 {
			continue
		}
		idxs, cs := r.plan.entryRefs(i)
		for k, qi := range idxs {
			r.estimates[qi] += cs[k] * v
		}
	}
	r.pos++
	return true
}

// RunToCompletion consumes every block; afterwards Estimates are exact.
func (r *BlockRun) RunToCompletion() {
	for r.Step() {
	}
}

// Done reports whether all blocks have been fetched.
func (r *BlockRun) Done() bool { return r.pos >= len(r.order) }

// BlocksFetched returns the number of blocks consumed so far.
func (r *BlockRun) BlocksFetched() int { return r.pos }

// Retrieved returns the number of coefficient retrievals so far.
func (r *BlockRun) Retrieved() int { return r.retrieved }

// Estimates returns the current progressive estimates (owned by the run).
func (r *BlockRun) Estimates() []float64 { return r.estimates }
