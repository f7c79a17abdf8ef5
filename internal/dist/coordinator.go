package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
)

// shardState is one shard's health ledger, updated on every sub-batch.
type shardState struct {
	requests atomic.Int64 // sub-batches sent
	keys     atomic.Int64 // keys routed to this shard
	errors   atomic.Int64 // sub-batches that came back with any failure
	degraded atomic.Int64 // keys that came back as per-key failures
	lastSeen atomic.Int64 // unix nanos of the last successful response, 0 = never

	mu      sync.Mutex
	lastErr string
}

// ShardHealth is a point-in-time snapshot of one shard's ledger, shaped for
// the /stats endpoint.
type ShardHealth struct {
	Shard        int    `json:"shard"`
	Addr         string `json:"addr"`
	Requests     int64  `json:"requests"`
	Keys         int64  `json:"keys"`
	Errors       int64  `json:"errors"`
	DegradedKeys int64  `json:"degraded_keys"`
	LastSeenUnix int64  `json:"last_seen_unix,omitempty"`
	LastError    string `json:"last_error,omitempty"`
}

// CoordinatorStore fans every retrieval out across N shard stores: each key
// is routed with storage.ShardOf — the rule Partition cuts every shard's
// slice by — the per-shard sub-batches run concurrently, and the answers land
// back in the caller's positions. A shard failing (whole sub-batch or
// individual keys) degrades rather than fails the batch: its keys come back
// as per-key entries of a *storage.BatchError, which the engine's skip
// machinery turns into Theorem-1-bounded skipped coefficients. Only the
// caller's own cancellation fails the whole batch.
//
// The shard stores are plain storage.Store values, so tests can
// coordinate over in-process FaultStores and production coordinates over
// RemoteStores; either way wrappers (RetryStore, CoalescingStore,
// InstrumentedStore) stack per shard underneath or on top of the
// coordinator unchanged.
type CoordinatorStore struct {
	shards []storage.Store
	addrs  []string
	health []shardState

	retrievals atomic.Int64
}

// NewCoordinator builds a coordinator over shards, whose count must be a
// positive power of two (the ShardOf precondition). addrs are the
// human-readable shard names for health reporting; nil derives "shard-i".
func NewCoordinator(shards []storage.Store, addrs []string) (*CoordinatorStore, error) {
	if err := ValidShardCount(len(shards)); err != nil {
		return nil, err
	}
	if addrs == nil {
		addrs = make([]string, len(shards))
		for i := range addrs {
			addrs[i] = fmt.Sprintf("shard-%d", i)
		}
	}
	if len(addrs) != len(shards) {
		return nil, fmt.Errorf("dist: %d addrs for %d shards", len(addrs), len(shards))
	}
	return &CoordinatorStore{
		shards: shards,
		addrs:  addrs,
		health: make([]shardState, len(shards)),
	}, nil
}

// ShardCount returns the number of shards fanned out to.
func (c *CoordinatorStore) ShardCount() int { return len(c.shards) }

// WireVersions reports each shard client's negotiated wire version: 0 for
// in-process shards or clients that never connected, ≥ 2 when trace
// propagation is active on the link. The /stats diagnostics section.
func (c *CoordinatorStore) WireVersions() []uint16 {
	out := make([]uint16, len(c.shards))
	for i, sh := range c.shards {
		if rs, ok := sh.(*RemoteStore); ok {
			out[i] = rs.NegotiatedVersion()
		}
	}
	return out
}

// Health snapshots every shard's ledger.
func (c *CoordinatorStore) Health() []ShardHealth {
	out := make([]ShardHealth, len(c.shards))
	for i := range c.shards {
		st := &c.health[i]
		st.mu.Lock()
		lastErr := st.lastErr
		st.mu.Unlock()
		out[i] = ShardHealth{
			Shard:        i,
			Addr:         c.addrs[i],
			Requests:     st.requests.Load(),
			Keys:         st.keys.Load(),
			Errors:       st.errors.Load(),
			DegradedKeys: st.degraded.Load(),
			LastSeenUnix: st.lastSeen.Load() / int64(time.Second),
			LastError:    lastErr,
		}
	}
	return out
}

// noteOK records a successful sub-batch on shard i.
func (c *CoordinatorStore) noteOK(i, keys int) {
	st := &c.health[i]
	st.requests.Add(1)
	st.keys.Add(int64(keys))
	st.lastSeen.Store(time.Now().UnixNano())
}

// noteErr records a failed (fully or partially) sub-batch on shard i;
// degraded counts the keys that failed.
func (c *CoordinatorStore) noteErr(i, keys, degraded int, err error) {
	st := &c.health[i]
	st.requests.Add(1)
	st.keys.Add(int64(keys))
	st.errors.Add(1)
	st.degraded.Add(int64(degraded))
	st.mu.Lock()
	st.lastErr = err.Error()
	st.mu.Unlock()
}

// BatchGetCtx implements storage.Store: partition by ShardOf, fan
// out concurrently, merge. Shard failures become per-key *storage.
// BatchError entries (ascending Index); only the caller's cancellation
// fails the whole batch.
func (c *CoordinatorStore) BatchGetCtx(ctx context.Context, keys []int, dst []float64) error {
	if len(keys) != len(dst) {
		panic("dist: BatchGetCtx keys/dst length mismatch")
	}
	if len(keys) == 0 {
		return nil
	}
	c.retrievals.Add(int64(len(keys)))
	start := time.Now()
	prof := obs.ProfileFrom(ctx)

	n := len(c.shards)
	// Group the caller's positions by owning shard.
	positions := make([][]int, n)
	for i, k := range keys {
		si := storage.ShardOf(k, n)
		positions[si] = append(positions[si], i)
	}

	var wg sync.WaitGroup
	// failed[si] holds shard si's contribution to the merged BatchError,
	// already remapped to the caller's positions. Slot-per-shard: no lock.
	failed := make([][]storage.KeyError, n)
	for si := 0; si < n; si++ {
		pos := positions[si]
		if len(pos) == 0 {
			continue
		}
		wg.Add(1)
		go func(si int, pos []int) {
			defer wg.Done()
			subStart := time.Now()
			subKeys := make([]int, len(pos))
			subDst := make([]float64, len(pos))
			for j, p := range pos {
				subKeys[j] = keys[p]
			}
			err := c.shards[si].BatchGetCtx(ctx, subKeys, subDst)
			for j, p := range pos {
				dst[p] = subDst[j]
			}
			var be *storage.BatchError
			switch {
			case err == nil:
				c.noteOK(si, len(pos))
				prof.AddShard(si, c.addrs[si], len(pos), time.Since(subStart), 0, 0)
			case errors.As(err, &be):
				// Partial failure: unlisted positions hold valid values;
				// remap the listed ones to the caller's indices.
				kes := make([]storage.KeyError, len(be.Failed))
				for j, ke := range be.Failed {
					kes[j] = storage.KeyError{Index: pos[ke.Index], Key: ke.Key, Err: ke.Err}
				}
				failed[si] = kes
				c.noteErr(si, len(pos), len(kes), err)
				prof.AddShard(si, c.addrs[si], len(pos), time.Since(subStart), len(kes), 0)
			default:
				// Whole sub-batch untrusted (shard dead, hung, protocol
				// violation): every key of this shard degrades.
				kes := make([]storage.KeyError, len(pos))
				for j, p := range pos {
					kes[j] = storage.KeyError{Index: p, Key: subKeys[j], Err: err}
					dst[p] = 0
				}
				failed[si] = kes
				c.noteErr(si, len(pos), len(kes), err)
				prof.AddShard(si, c.addrs[si], len(pos), time.Since(subStart), len(kes), len(kes))
			}
		}(si, pos)
	}
	wg.Wait()
	fanoutSeconds.Load().Observe(time.Since(start).Seconds())

	// The caller's own cancellation dominates: per the Store
	// contract no position may be trusted then, and callers (retry, skip
	// accounting) must see ctx.Err(), not a degraded-shard report.
	if err := ctx.Err(); err != nil {
		return err
	}
	var merged []storage.KeyError
	for _, kes := range failed {
		merged = append(merged, kes...)
	}
	if len(merged) == 0 {
		return nil
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Index < merged[j].Index })
	return &storage.BatchError{Failed: merged}
}

// Retrievals implements storage.Store, counting keys requested through the
// coordinator.
func (c *CoordinatorStore) Retrievals() int64 { return c.retrievals.Load() }

// ResetStats implements storage.Store.
func (c *CoordinatorStore) ResetStats() { c.retrievals.Store(0) }

// NonzeroCount implements storage.Store as the sum over shards (each shard
// owns a disjoint key slice). Unreachable shards report 0 — a diagnostic
// surface, not a correctness one.
func (c *CoordinatorStore) NonzeroCount() int {
	total := 0
	for _, sh := range c.shards {
		total += sh.NonzeroCount()
	}
	return total
}

// ConcurrentSafe implements the storage.IsConcurrent capability check:
// fan-out state is per-call, health is atomic, and the shard clients are
// concurrent-safe.
func (c *CoordinatorStore) ConcurrentSafe() bool { return true }

// StackName names the coordinator in storage.Describe.
func (c *CoordinatorStore) StackName() string { return "shards" }

// Close closes every shard client that supports closing.
func (c *CoordinatorStore) Close() error {
	var first error
	for _, sh := range c.shards {
		if cl, ok := sh.(io.Closer); ok {
			if err := cl.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

var _ storage.Store = (*CoordinatorStore)(nil)
