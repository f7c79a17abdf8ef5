package storage

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
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
	inflight map[int]flightRef

	counts *CoalesceCounters
}

// CoalesceCounters is what a coalescing layer counts. It is a type of its
// own so that the owner of a store stack can keep one across rebuilds
// (Stack.Build): the layers come and go, the counts only grow. Every
// requested key is either led or joined, and a batch is counted when it has
// sorted its keys into the two, so Requests = Fetched + Coalesced in every
// Stats, whatever is in flight.
type CoalesceCounters struct {
	fetched   atomic.Int64 // coefficients asked of the wrapped store
	coalesced atomic.Int64 // coefficients that joined another fetch
}

// Stats returns the counters.
func (c *CoalesceCounters) Stats() CoalesceStats {
	fetched, coalesced := c.fetched.Load(), c.coalesced.Load()
	return CoalesceStats{Requests: fetched + coalesced, Fetched: fetched, Coalesced: coalesced}
}

// flight is one in-progress lead fetch: every key a batch registered, asked
// of the wrapped store in one call. Joiners block on done and read their
// key's slot after. A leader's failure is shared with its joiners exactly
// like a value: the coefficient was fetched once on everyone's behalf, so its
// error is everyone's error.
type flight struct {
	done chan struct{}
	vals []float64
	errs []error // per slot; nil unless the fetch failed for some keys
	err  error   // the fetch failed as a whole
}

// flightRef is where an in-flight key's answer will be: slot at of f.
type flightRef struct {
	f  *flight
	at int
}

// result returns the slot's value or failure; valid once f.done is closed.
func (r flightRef) result() (float64, error) {
	switch {
	case r.f.err != nil:
		return 0, r.f.err
	case r.f.errs != nil && r.f.errs[r.at] != nil:
		return 0, r.f.errs[r.at]
	}
	return r.f.vals[r.at], nil
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
	return &CoalescingStore{inner: inner, inflight: make(map[int]flightRef), counts: new(CoalesceCounters)}
}

// BatchGetCtx implements Store. Keys already in flight elsewhere are
// joined; the rest are registered under one flight and fetched from the
// wrapped store in one batch. Duplicate keys within the batch find their
// first occurrence in the in-flight map like anyone else's, so they are
// fetched once and the repeats count as coalesced. Per-key failures — from
// our own lead fetch or from a joined leader — are collected into a
// *BatchError; a non-batch failure of the lead fetch (cancellation, total
// outage) reaches every joiner of the flight and is returned whole. A joiner
// whose own context ends while waiting returns ctx.Err() without disturbing
// the flight. What a call allocates does not depend on how many keys it
// carries: one flight and three slices sized from the batch.
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

	type join struct {
		pos int
		ref flightRef
	}
	var (
		joins    []join
		lead     = &flight{done: make(chan struct{})}
		leadKeys = make([]int, 0, len(keys))
		leadPos  = make([]int, 0, len(keys)) // caller position of each lead key
	)
	s.mu.Lock()
	for i, k := range keys {
		if ref, ok := s.inflight[k]; ok {
			joins = append(joins, join{pos: i, ref: ref})
			continue
		}
		s.inflight[k] = flightRef{f: lead, at: len(leadKeys)}
		leadKeys = append(leadKeys, k)
		leadPos = append(leadPos, i)
	}
	s.mu.Unlock()

	if sp != nil {
		sp.SetAttr("leads", strconv.Itoa(len(leadKeys)))
		sp.SetAttr("joins", strconv.Itoa(len(joins)))
	}
	// The layer's counters and the EXPLAIN ANALYZE attribution (nil profile
	// = no-op) say the same thing: requested = physically fetched (leads) +
	// served by joining another key's flight.
	s.counts.fetched.Add(int64(len(leadKeys)))
	s.counts.coalesced.Add(int64(len(joins)))
	obs.ProfileFrom(ctx).AddCoalesce(len(keys), len(leadKeys), len(joins))

	var failed []KeyError
	if len(leadKeys) > 0 {
		lead.vals = make([]float64, len(leadKeys))
		err := s.inner.BatchGetCtx(ctx, leadKeys, lead.vals)
		if err != nil {
			var be *BatchError
			if errors.As(err, &be) {
				lead.errs = make([]error, len(leadKeys))
				for _, ke := range be.Failed {
					lead.errs[ke.Index] = ke.Err
				}
			} else {
				lead.err = err
			}
		}
		s.mu.Lock()
		for _, k := range leadKeys {
			delete(s.inflight, k)
		}
		s.mu.Unlock()
		close(lead.done)
		if lead.err != nil {
			return lead.err
		}
		// Leads answer their own position; repeats of a lead key within this
		// batch are among the joins.
		for j, pos := range leadPos {
			v, err := flightRef{f: lead, at: j}.result()
			if err != nil {
				failed = append(failed, KeyError{Index: pos, Key: leadKeys[j], Err: err})
				continue
			}
			dst[pos] = v
		}
	}
	for _, jn := range joins {
		select {
		case <-jn.ref.f.done:
		case <-ctx.Done():
			return ctx.Err()
		}
		v, err := jn.ref.result()
		if err != nil {
			failed = append(failed, KeyError{Index: jn.pos, Key: keys[jn.pos], Err: err})
			continue
		}
		dst[jn.pos] = v
	}
	slices.SortFunc(failed, func(a, b KeyError) int { return cmp.Compare(a.Index, b.Index) })
	return batchError(failed)
}

// Stats returns the coalescing counters.
func (s *CoalescingStore) Stats() CoalesceStats { return s.counts.Stats() }

// Retrievals implements Store: physical fetches issued to the wrapped store.
func (s *CoalescingStore) Retrievals() int64 { return s.inner.Retrievals() }

// ResetStats implements Store, zeroing both the wrapped store's counter and
// the layer's own.
func (s *CoalescingStore) ResetStats() {
	s.inner.ResetStats()
	s.counts.fetched.Store(0)
	s.counts.coalesced.Store(0)
}

// NonzeroCount implements Store.
func (s *CoalescingStore) NonzeroCount() int { return s.inner.NonzeroCount() }

// ConcurrentSafe implements the IsConcurrent capability check: the wrapped
// store was required to be concurrent-safe and the layer synchronizes its
// own state.
func (s *CoalescingStore) ConcurrentSafe() bool { return true }
