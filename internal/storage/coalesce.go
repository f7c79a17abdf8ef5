package storage

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// CoalescingStore is a singleflight layer over a concurrent-safe store: when
// several runs ask for the same coefficient at the same time, exactly one
// fetch reaches the wrapped store and every overlapping requester shares its
// result. This extends the paper's intra-batch I/O sharing (one retrieval
// per master-list entry) across concurrent batches: the scheduler advances
// many runs at once, their master lists overlap heavily on the coarse
// wavelet levels, and the overlapping retrievals collapse into one.
//
// Counting: Retrievals of the wrapped store reports only the fetches that
// were actually issued (the layer's misses) — physical I/O, exactly as
// CachedStore counts for sessions. Per-run retrieval counts (Run.Retrieved)
// are unaffected: every run still pays one logical retrieval per requested
// coefficient, so the paper's cost model per run is untouched.
//
// Unlike CachedStore, nothing is retained after a fetch completes: the layer
// holds only the in-flight window, so it is safe at any store size and never
// serves stale values once an Add lands (an Add racing an in-flight fetch of
// the same key has plain Get/Add race semantics, as on the wrapped store).
type CoalescingStore struct {
	inner Store

	mu       sync.Mutex
	inflight map[int]*flight

	requests  atomic.Int64 // coefficients requested through the layer
	fetched   atomic.Int64 // coefficients fetched from the wrapped store
	coalesced atomic.Int64 // coefficients served by joining another fetch
}

// flight is one in-progress fetch; joiners block on done and read val/err
// after. A leader's failure is shared with its joiners exactly like a value:
// the coefficient was fetched once on everyone's behalf, so its error is
// everyone's error.
type flight struct {
	done chan struct{}
	val  float64
	err  error
}

// CoalesceStats is a snapshot of the layer's counters. Requests = Fetched +
// Coalesced; a nonzero Coalesced means concurrent runs actually shared I/O.
type CoalesceStats struct {
	Requests  int64 `json:"requests"`
	Fetched   int64 `json:"fetched"`
	Coalesced int64 `json:"coalesced"`
}

// NewCoalescingStore wraps inner, which must be concurrent-safe (the
// layer's whole point is overlapping callers); anything else is a wiring bug
// and panics.
func NewCoalescingStore(inner Store) *CoalescingStore {
	if !IsConcurrent(inner) {
		panic(fmt.Sprintf("storage: coalescing over %T, which is not concurrent-safe", inner))
	}
	return &CoalescingStore{inner: inner, inflight: make(map[int]*flight)}
}

// BatchGetCtx implements Store. Keys already in flight elsewhere are
// joined; the rest are registered and fetched from the wrapped store in one
// batch. Duplicate keys within the batch are fetched once and the repeats
// count as coalesced, mirroring the sequential fetch-then-join behaviour.
// Per-key failures — from our own lead fetch or from a joined leader — are
// collected into a *BatchError; a non-batch failure of the lead fetch
// (cancellation, total outage) is propagated to every flight we lead, so
// joiners fail too, and returned whole. A joiner whose own context ends
// while waiting returns ctx.Err() without disturbing the flight.
func (s *CoalescingStore) BatchGetCtx(ctx context.Context, keys []int, dst []float64) (err error) {
	checkBatch(keys, dst)
	ctx, sp := obs.StartSpan(ctx, "storage.coalesce.batchget")
	if sp != nil {
		sp.SetAttr("keys", strconv.Itoa(len(keys)))
		defer func() {
			sp.SetError(err)
			sp.End()
		}()
	}
	s.requests.Add(int64(len(keys)))
	obsCoalesce(int64(len(keys)), 0, 0)

	type join struct {
		pos int
		f   *flight
	}
	var (
		joins    []join
		leadKeys []int
		leadPos  []int               // caller position of each lead key
		leadAt   = make(map[int]int) // key → index into leadKeys
		flights  []*flight
	)
	s.mu.Lock()
	for i, k := range keys {
		if j, ok := leadAt[k]; ok {
			// Duplicate within this batch: shares our own fetch.
			joins = append(joins, join{pos: i, f: flights[j]})
			continue
		}
		if f, ok := s.inflight[k]; ok {
			joins = append(joins, join{pos: i, f: f})
			continue
		}
		f := &flight{done: make(chan struct{})}
		s.inflight[k] = f
		leadAt[k] = len(leadKeys)
		leadKeys = append(leadKeys, k)
		leadPos = append(leadPos, i)
		flights = append(flights, f)
	}
	s.mu.Unlock()

	sp.SetAttr("leads", strconv.Itoa(len(leadKeys)))
	sp.SetAttr("joins", strconv.Itoa(len(joins)))
	// EXPLAIN ANALYZE attribution: requested vs physically fetched (leads)
	// vs served by joining another key's flight. Nil profile = no-op.
	obs.ProfileFrom(ctx).AddCoalesce(len(keys), len(leadKeys), len(joins))

	var whole error // non-batch failure of the lead fetch
	if len(leadKeys) > 0 {
		vals := make([]float64, len(leadKeys))
		err := s.inner.BatchGetCtx(ctx, leadKeys, vals)
		s.fetched.Add(int64(len(leadKeys)))
		obsCoalesce(0, int64(len(leadKeys)), 0)
		var be *BatchError
		switch {
		case err == nil:
		case errors.As(err, &be):
			for _, ke := range be.Failed {
				flights[ke.Index].err = ke.Err
			}
		default:
			whole = err
			for _, f := range flights {
				f.err = err
			}
		}
		s.mu.Lock()
		for _, k := range leadKeys {
			delete(s.inflight, k)
		}
		s.mu.Unlock()
		for j, f := range flights {
			f.val = vals[j]
			close(f.done)
		}
		if whole != nil {
			return whole
		}
	}

	// Leads answer their own position; repeats of a lead key within this
	// batch are among the joins.
	var failed []KeyError
	for j, f := range flights {
		if f.err != nil {
			failed = append(failed, KeyError{Index: leadPos[j], Key: leadKeys[j], Err: f.err})
		} else {
			dst[leadPos[j]] = f.val
		}
	}
	for _, jn := range joins {
		select {
		case <-jn.f.done:
		case <-ctx.Done():
			return ctx.Err()
		}
		s.coalesced.Add(1)
		obsCoalesce(0, 0, 1)
		if jn.f.err != nil {
			failed = append(failed, KeyError{Index: jn.pos, Key: keys[jn.pos], Err: jn.f.err})
			continue
		}
		dst[jn.pos] = jn.f.val
	}
	sort.Slice(failed, func(a, b int) bool { return failed[a].Index < failed[b].Index })
	return batchError(failed)
}

// Stats returns the coalescing counters.
func (s *CoalescingStore) Stats() CoalesceStats {
	return CoalesceStats{
		Requests:  s.requests.Load(),
		Fetched:   s.fetched.Load(),
		Coalesced: s.coalesced.Load(),
	}
}

// Add implements Updatable when the wrapped store does; it panics otherwise.
// The write goes straight through — the layer holds no cached values to
// invalidate.
func (s *CoalescingStore) Add(key int, delta float64) {
	u, ok := s.inner.(Updatable)
	if !ok {
		panic("storage: wrapped store is not updatable")
	}
	u.Add(key, delta)
}

// Retrievals implements Store: physical fetches issued to the wrapped store.
func (s *CoalescingStore) Retrievals() int64 { return s.inner.Retrievals() }

// ResetStats implements Store, zeroing both the wrapped store's counter and
// the layer's own.
func (s *CoalescingStore) ResetStats() {
	s.inner.ResetStats()
	s.requests.Store(0)
	s.fetched.Store(0)
	s.coalesced.Store(0)
}

// NonzeroCount implements Store.
func (s *CoalescingStore) NonzeroCount() int { return s.inner.NonzeroCount() }

// Enumerable reports whether the wrapped store supports enumeration.
func (s *CoalescingStore) Enumerable() bool { return IsEnumerable(s.inner) }

// ForEachNonzero implements Enumerable when the wrapped store does; it
// panics otherwise (check Enumerable first).
func (s *CoalescingStore) ForEachNonzero(fn func(key int, value float64) bool) {
	e, ok := s.inner.(Enumerable)
	if !ok {
		panic(fmt.Sprintf("storage: %T is not enumerable", s.inner))
	}
	e.ForEachNonzero(fn)
}

// ConcurrentSafe implements the IsConcurrent capability check: the wrapped
// store was required to be concurrent-safe and the layer synchronizes its
// own state.
func (s *CoalescingStore) ConcurrentSafe() bool { return true }

var (
	_ Updatable  = (*CoalescingStore)(nil)
	_ Enumerable = (*CoalescingStore)(nil)
)
