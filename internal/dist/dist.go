// Package dist is the distributed evaluation tier: the coefficient store Δ̂
// partitioned across N networked shard servers, reassembled behind the
// storage.Store interface by a fan-out coordinator.
//
// Three pieces:
//
//   - Server exposes one shard's coefficient partition over plain TCP using
//     the length-prefixed frames of internal/codec (BatchGet request/response
//     carrying delta-varint packed keys, raw float64 value bits and per-key
//     errors, plus a metadata frame describing the shard's view).
//
//   - RemoteStore is the client of one shard: a storage.Store over a
//     small connection pool with per-attempt deadlines, so the existing
//     robustness stack (RetryStore, CoalescingStore, InstrumentedStore)
//     composes on top unchanged — the network is just another fallible store.
//
//   - CoordinatorStore partitions every BatchGetCtx across the shards with
//     storage.ShardOf — the same packed-key hash ShardedStore uses for its
//     lock shards — fans the sub-batches out concurrently, and merges the
//     partial results. A dead or degraded shard does not fail the batch: its
//     keys come back as per-key *storage.BatchError entries, which the
//     engine's skip machinery (core.Run degraded mode) turns into skipped
//     coefficients whose contribution Theorem 1 already bounds. The server
//     above answers 206 Partial Content, exactly as it does for local
//     storage faults.
//
// The partition is value-preserving by construction: every nonzero
// coefficient lives on exactly one shard (Partition filters by ShardOf), the
// wire carries float64 bits verbatim, and the coordinator writes each
// shard's answers back into the caller's batch positions — so a progressive
// drain through the coordinator retrieves bit-identical coefficients in the
// same schedule order as a single-node run, and produces bit-identical
// estimates.
package dist

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/codec"
	"repro/internal/storage"
)

// ErrShard marks failures attributed to a shard server (unreachable, hung
// up, protocol violation, or a remote-side retrieval error). Match with
// errors.Is through every wrapper layer.
var ErrShard = errors.New("dist: shard error")

// remoteError is a shard-attributed failure carrying the shard address and
// the remote (or transport) cause as text.
type remoteError struct {
	addr string
	msg  string
}

func (e *remoteError) Error() string { return fmt.Sprintf("shard %s: %s", e.addr, e.msg) }

// Is reports ErrShard so callers can classify without string matching.
func (e *remoteError) Is(target error) bool { return target == ErrShard }

// ValidShardCount reports an error unless n is a positive power of two —
// the precondition of storage.ShardOf, and therefore of every partition
// decision in this package. Callers surface it as a configuration error
// instead of silently rounding the shard count (a coordinator and a shard
// set that round differently would route keys to the wrong nodes).
func ValidShardCount(n int) error {
	if n <= 0 || n&(n-1) != 0 {
		return fmt.Errorf("dist: shard count %d must be a positive power of two", n)
	}
	return nil
}

// Partition extracts shard index's slice of a full coefficient store: the
// nonzero entries whose key storage.ShardOf assigns to index, as a fresh
// HashStore, together with the partition's nonzero count and coefficient
// mass Σ|v| accumulated in ascending key order (so the mass is deterministic
// — map enumeration order must not leak into a quantity coordinators sum and
// bound computations consume).
func Partition(src storage.Enumerable, index, count int) (*storage.HashStore, int64, float64, error) {
	if err := ValidShardCount(count); err != nil {
		return nil, 0, 0, err
	}
	if index < 0 || index >= count {
		return nil, 0, 0, fmt.Errorf("dist: shard index %d out of range [0,%d)", index, count)
	}
	type pair struct {
		k int
		v float64
	}
	var pairs []pair
	src.ForEachNonzero(func(k int, v float64) bool {
		if storage.ShardOf(k, count) == index {
			pairs = append(pairs, pair{k, v})
		}
		return true
	})
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	st := storage.NewHashStore()
	var mass float64
	for _, p := range pairs {
		st.Add(p.k, p.v)
		if p.v < 0 {
			mass -= p.v
		} else {
			mass += p.v
		}
	}
	return st, int64(len(pairs)), mass, nil
}

// ValidateMetas checks that a set of shard self-descriptions, indexed by the
// coordinator's dial order, forms one coherent view: every shard must report
// the same schema, filter, tuple count and windows, declare the same shard
// count (equal to the number of shards dialed), and sit at the index the
// coordinator dialed it at. Any disagreement is a deployment error — two
// shards serving different databases would silently merge into garbage.
func ValidateMetas(metas []*codec.ShardMeta) error {
	if len(metas) == 0 {
		return fmt.Errorf("dist: no shards")
	}
	if err := ValidShardCount(len(metas)); err != nil {
		return err
	}
	ref := metas[0]
	for i, m := range metas {
		if m.ShardCount != len(metas) {
			return fmt.Errorf("dist: shard %d declares %d shards, coordinator dialed %d", i, m.ShardCount, len(metas))
		}
		if m.ShardIndex != i {
			return fmt.Errorf("dist: shard dialed at position %d declares index %d (check -shards order)", i, m.ShardIndex)
		}
		if m.FilterName != ref.FilterName {
			return fmt.Errorf("dist: shard %d filter %q differs from shard 0 filter %q", i, m.FilterName, ref.FilterName)
		}
		if m.TupleCount != ref.TupleCount {
			return fmt.Errorf("dist: shard %d tuple count %d differs from shard 0 count %d", i, m.TupleCount, ref.TupleCount)
		}
		if len(m.Names) != len(ref.Names) {
			return fmt.Errorf("dist: shard %d has %d dimensions, shard 0 has %d", i, len(m.Names), len(ref.Names))
		}
		for d := range m.Names {
			if m.Names[d] != ref.Names[d] || m.Sizes[d] != ref.Sizes[d] || m.Windows[d] != ref.Windows[d] {
				return fmt.Errorf("dist: shard %d dimension %d (%s:%d) differs from shard 0 (%s:%d)",
					i, d, m.Names[d], m.Sizes[d], ref.Names[d], ref.Sizes[d])
			}
		}
	}
	return nil
}
