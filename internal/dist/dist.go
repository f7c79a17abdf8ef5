// Package dist is the distributed evaluation tier: the coefficient store Δ̂
// served by N networked shard servers, each owning the keys storage.ShardOf
// assigns it, reassembled behind the storage.Store interface by a fan-out
// coordinator.
//
// Three pieces:
//
//   - Server exposes one shard's view over plain TCP using the
//     length-prefixed frames of internal/codec (BatchGet request/response
//     carrying delta-varint packed keys, raw float64 value bits and per-key
//     errors, plus a metadata frame describing the shard).
//
//   - RemoteStore is the client of one shard: a storage.Store over a
//     small connection pool with per-attempt deadlines, so the existing
//     robustness stack (RetryStore, CoalescingStore, InstrumentedStore)
//     composes on top unchanged — the network is just another fallible store.
//
//   - CoordinatorStore partitions every BatchGetCtx across the shards with
//     storage.ShardOf — the rule that names each key's owner — fans
//     the sub-batches out concurrently, and merges the partial results. A
//     dead or degraded shard does not fail the batch: its keys come back as
//     per-key *storage.BatchError entries, which the engine's skip machinery
//     (core.Run degraded mode) turns into skipped coefficients whose
//     contribution Theorem 1 already bounds. The server above answers 206
//     Partial Content, exactly as it does for local storage faults.
//
// The partition is value-preserving by construction: every key is owned by
// exactly one shard (ShardOf), each shard answers from the same view, the
// wire carries float64 bits verbatim, and the coordinator writes each
// shard's answers back into the caller's batch positions — so a progressive
// drain through the coordinator retrieves bit-identical coefficients in the
// same schedule order as a single-node run, and produces bit-identical
// estimates.
package dist

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/codec"
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

// ValidShard is ValidShardCount plus the index's range check: what a shard
// server checks before it serves shard index of count.
func ValidShard(index, count int) error {
	if err := ValidShardCount(count); err != nil {
		return err
	}
	if index < 0 || index >= count {
		return fmt.Errorf("dist: shard index %d out of range [0,%d)", index, count)
	}
	return nil
}

// ValidateMetas checks that a set of shard self-descriptions, indexed by the
// coordinator's dial order, forms one coherent view: every shard must report
// the same schema, filter, tuple count and windows, the same nonzero count
// and the same coefficient mass bits (each serves the whole view), declare
// the same shard count (equal to the number of shards dialed), and sit at
// the index the coordinator dialed it at. Any disagreement is a deployment
// error — two shards serving different databases would silently merge into
// garbage.
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
		if m.Nonzero != ref.Nonzero || math.Float64bits(m.Mass) != math.Float64bits(ref.Mass) {
			return fmt.Errorf("dist: shard %d serves %d coefficients of mass %v, shard 0 %d of mass %v (a different view)",
				i, m.Nonzero, m.Mass, ref.Nonzero, ref.Mass)
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
