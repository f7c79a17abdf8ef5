// Package storage holds the materialized view of the transformed data
// frequency distribution Δ̂ and implements the paper's I/O cost model:
// coefficients live in array-based or sparse storage with constant-time
// random access, and the unit of cost is one retrieval per requested
// coefficient (Section 1.3 of the paper). A store does not count what it is
// asked: the physical count has one owner, the instrument layer every Stack
// builds, which adds each batch's keys to the Counters its owner holds, and
// a run counts its own retrievals (core.Run.Retrieved).
//
// A view is built once, from keys in ascending order (Build), and then only
// read. Every store takes any number of concurrent readers — a layer with
// state of its own synchronizes it — and writes go through the multi-version store
// (internal/mvcc), which never writes a base it serves: its compaction
// builds the next one. A single run retrieves sequentially, matching the
// paper's model.
package storage

import (
	"context"
	"fmt"
	"runtime"
)

// Store provides random access to transform coefficients by flat key. It
// has one retrieval method, matching the one storage operation of the
// paper's cost model; the free functions Get, GetCtx and BatchGet adapt it
// for callers that want a single key or no error handling. Counting the
// retrievals is not the store's business: the instrument layer of a Stack
// counts the keys asked of everything beneath it (Counters).
type Store interface {
	// BatchGetCtx retrieves the coefficient for keys[i] into dst[i]; each
	// of the len(keys) keys is one retrieval. Missing coefficients are zero
	// (and still cost a retrieval: the engine had to probe storage to learn
	// that). Keys may repeat and appear in any order; len(keys) != len(dst)
	// panics. A key outside the store's domain (negative, or beyond the
	// size of a store that knows its size) and any other per-key failure is
	// reported as a *BatchError listing the failed positions in ascending
	// Index order — positions it does not list hold valid values. Any other
	// non-nil error (including ctx.Err(), which an already-ended context
	// returns before anything is retrieved) means no position of dst may be
	// trusted.
	BatchGetCtx(ctx context.Context, keys []int, dst []float64) error
	// NonzeroCount returns the number of nonzero coefficients held.
	NonzeroCount() int
}

// Enumerable is implemented by stores that can iterate their nonzero
// coefficients (for persistence, compaction and diagnostics): the base
// stores, a .wvls layout, and an MVCC store or view. Iteration is in
// ascending key order; fn returning false stops the walk. Enumeration is
// not a retrieval and no count sees it. Walk returns the damage a store meets on the way (a
// layout file's block or key index failing its check); a store that cannot
// meet any returns nil. A type assertion is the whole test: no wrapper
// implements the method, so a store that has it can enumerate. The layers of
// a Stack and a session's CachedStore do not forward enumeration: their owner
// walks the base.
type Enumerable interface {
	Walk(fn func(key int, value float64) bool) error
}

// MemoryStore is an in-memory base store: built once (Build,
// NewMemoryStoreFromDense), then only read, by any number of goroutines, and
// enumerable in ascending key order.
type MemoryStore interface {
	Store
	Enumerable
}

// Build returns the in-memory base store of the coefficients walk hands its
// fn, at most count of them, over a domain of cells cells. walk calls fn once
// per coefficient in strictly ascending key order — an Enumerable's Walk is
// one — and a zero value is skipped: a base never stores one. The store is
// the paper's array-based storage when the dense array is at most twice the
// sparse store's bytes — 8 B a cell against 16 B a key, so 4·count ≥ cells,
// at least a quarter full: one index read where the alternative is a
// directory search — and a SparseStore otherwise. cells ≤ 0, a domain the
// caller does not know, selects the sparse store. Every site that builds a
// base store goes through here: loading a file, building a sparse
// distribution, MVCC compaction.
//
// Build reserves its memory once, outside the Go heap (mapSlice), owned by
// the store it returns and unmapped once that store is unreachable. It
// refuses a key not above the previous one, a negative key, a key outside
// [0, cells) when the domain is known, and more than count keys, and then
// returns no store, as it does when walk returns an error.
func Build(cells, count int, walk func(fn func(key int, value float64) bool) error) (MemoryStore, error) {
	if count < 0 {
		return nil, fmt.Errorf("storage: negative coefficient count %d", count)
	}
	array := atLeastQuarterFull(cells, count)
	var (
		dense []float64
		keys  []int
		vals  []float64
	)
	if array {
		dense = mapSlice[float64](cells)
	} else {
		keys, vals = mapSlice[int](count), mapSlice[float64](count)
	}
	n, prev := 0, -1
	var refused error
	err := walk(func(k int, v float64) bool {
		switch {
		case k < 0:
			refused = fmt.Errorf("storage: key %d out of range (negative)", k)
		case k <= prev:
			refused = fmt.Errorf("storage: key %d after key %d: keys must ascend", k, prev)
		case cells > 0 && k >= cells:
			refused = fmt.Errorf("storage: key %d out of range [0,%d)", k, cells)
		case v == 0:
			prev = k
			return true
		case n == count:
			refused = fmt.Errorf("storage: more than the %d coefficients declared", count)
		default:
			if array {
				dense[k] = v
			} else {
				keys[n], vals[n] = k, v
			}
			n, prev = n+1, k
			return true
		}
		return false
	})
	if refused != nil {
		err = refused
	}
	if err != nil {
		unmapSlice(dense)
		unmapSlice(keys)
		unmapSlice(vals)
		return nil, err
	}
	if array {
		s := &ArrayStore{cells: dense, nonzero: n}
		runtime.SetFinalizer(s, func(s *ArrayStore) { unmapSlice(s.cells) })
		return s, nil
	}
	return newSparseStore(keys[:n], vals[:n]), nil
}

// NewMemoryStoreFromDense is Build for a domain already held as a dense
// array: the array itself, not a copy of it, when the rule picks the array;
// a sparse store of its nonzero cells, from one ascending scan, otherwise.
func NewMemoryStoreFromDense(cells []float64) MemoryStore {
	a := NewArrayStore(cells)
	if atLeastQuarterFull(len(cells), a.NonzeroCount()) {
		return a
	}
	return sparseFrom(a)
}

// atLeastQuarterFull is Build's rule, 4·count ≥ cells, written as count ≥
// ⌈cells/4⌉ so that no count or domain overflows it.
func atLeastQuarterFull(cells, count int) bool {
	return cells > 0 && uint64(count) >= (uint64(cells)+3)/4
}

// ArrayStore keeps the full dense coefficient array. Access is a bounds
// check and an index — the paper's "array-based storage".
//
// The array Build allocates is a mapping the store owns, released by a
// finalizer; every method that indexes it ends with runtime.KeepAlive(s), so
// the store outlives the loop (holding only the slice would not keep the
// mapping).
type ArrayStore struct {
	cells   []float64
	nonzero int
}

// NewArrayStore wraps the given dense coefficient array. The store aliases
// the slice, owns nothing (the caller's memory stays the caller's) and counts
// its nonzero cells here, once; the caller must not write the slice after.
func NewArrayStore(cells []float64) *ArrayStore {
	s := &ArrayStore{cells: cells}
	for _, v := range cells {
		if v != 0 {
			s.nonzero++
		}
	}
	return s
}

// BatchGetCtx implements Store: an index per key.
func (s *ArrayStore) BatchGetCtx(ctx context.Context, keys []int, dst []float64) error {
	checkBatch(keys, dst)
	if err := ctx.Err(); err != nil {
		return err
	}
	var failed []KeyError
	for i, k := range keys {
		if k < 0 || k >= len(s.cells) {
			failed = append(failed, rangeError(i, k, len(s.cells)))
			continue
		}
		dst[i] = s.cells[k]
	}
	runtime.KeepAlive(s)
	return batchError(failed)
}

// NonzeroCount implements Store: the count is taken when the store is built.
func (s *ArrayStore) NonzeroCount() int { return s.nonzero }

// Size returns the total number of cells (zero or not).
func (s *ArrayStore) Size() int { return len(s.cells) }

// Walk implements Enumerable. It never fails.
func (s *ArrayStore) Walk(fn func(key int, value float64) bool) error {
	for k, v := range s.cells {
		if v != 0 && !fn(k, v) {
			break
		}
	}
	runtime.KeepAlive(s)
	return nil
}

// SparseStore keeps only the nonzero coefficients, in one Sorted map — the
// paper's "hash-based storage" for a transform sparse relative to its
// domain, with a bucket directory where the hash was: 16 bytes a key and
// about half a byte of directory. Its keys and values live outside the Go
// heap (mapSlice), owned by the store and unmapped by a finalizer, like
// Build's ArrayStore; every method that indexes them ends with
// runtime.KeepAlive(s). The store does not know its domain, so only negative
// keys are out of range.
type SparseStore struct {
	m Sorted
}

// HashStore is the sparse store's old name, which the benchmark harness
// still names; it goes with the harness's FallibleStore.
type HashStore = SparseStore

// newSparseStore indexes keys and values mapSlice reserved (or any slices
// the store may own) and hands their mappings to the store's finalizer.
func newSparseStore(keys []int, vals []float64) *SparseStore {
	s := &SparseStore{m: NewSorted(keys, vals)}
	runtime.SetFinalizer(s, func(s *SparseStore) {
		unmapSlice(s.m.keys[:cap(s.m.keys)])
		unmapSlice(s.m.vals[:cap(s.m.vals)])
	})
	return s
}

// NewSparseStoreFromDense builds a sparse store of the nonzero cells of a
// dense coefficient array, in one ascending scan.
func NewSparseStoreFromDense(cells []float64) *SparseStore {
	return sparseFrom(NewArrayStore(cells))
}

// sparseFrom is Build of a's nonzero cells into a sparse store: cells 0, a
// domain Build does not know, selects it, and a's walk ascends and cannot
// fail.
func sparseFrom(a *ArrayStore) *SparseStore {
	s, _ := Build(0, a.NonzeroCount(), a.Walk)
	return s.(*SparseStore)
}

// BatchGetCtx implements Store: a directory search per key.
func (s *SparseStore) BatchGetCtx(ctx context.Context, keys []int, dst []float64) error {
	checkBatch(keys, dst)
	if err := ctx.Err(); err != nil {
		return err
	}
	var failed []KeyError
	for i, k := range keys {
		if k < 0 {
			failed = append(failed, KeyError{Index: i, Key: k, Err: errNegativeKey})
			continue
		}
		dst[i], _ = s.m.Lookup(k)
	}
	runtime.KeepAlive(s)
	return batchError(failed)
}

// NonzeroCount implements Store.
func (s *SparseStore) NonzeroCount() int { return s.m.Len() }

// Walk implements Enumerable. It never fails.
func (s *SparseStore) Walk(fn func(key int, value float64) bool) error {
	for i := range s.m.keys {
		if !fn(s.m.keys[i], s.m.vals[i]) {
			break
		}
	}
	runtime.KeepAlive(s)
	return nil
}

var (
	_ MemoryStore = (*ArrayStore)(nil)
	_ MemoryStore = (*SparseStore)(nil)
)
