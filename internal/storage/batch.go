package storage

import (
	"context"
	"errors"
	"fmt"
	"slices"
)

// FallibleStore is the name Store had while an infallible Get/GetBatch
// surface existed beside BatchGetCtx; it survives for callers that spell it.
type FallibleStore = Store

// KeyError records the failure of one coefficient retrieval, within a batch
// or alone.
type KeyError struct {
	// Index is the position in the batch's keys/dst slices (0 for single
	// retrievals).
	Index int
	// Key is the storage key whose retrieval failed.
	Key int
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *KeyError) Error() string {
	return fmt.Sprintf("storage: retrieving key %d: %v", e.Key, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *KeyError) Unwrap() error { return e.Err }

// BatchError reports the partial failure of a BatchGetCtx call: the listed
// positions failed, every other position of dst holds a valid coefficient.
// Callers that can degrade (core.Run) apply the successes and account for
// the failures — a coefficient that could not be fetched is just an
// unretrieved term whose contribution Theorem 1 already bounds; callers that
// cannot (exact evaluation) treat it as fatal.
type BatchError struct {
	// Failed holds one entry per failed position, in ascending Index order.
	Failed []KeyError
}

// Error implements error.
func (e *BatchError) Error() string {
	if len(e.Failed) == 1 {
		return e.Failed[0].Error()
	}
	return fmt.Sprintf("storage: %d of batch retrievals failed (first: %v)",
		len(e.Failed), e.Failed[0].Error())
}

// Unwrap exposes every per-key cause to errors.Is/As.
func (e *BatchError) Unwrap() []error {
	errs := make([]error, len(e.Failed))
	for i := range e.Failed {
		errs[i] = &e.Failed[i]
	}
	return errs
}

// errNegativeKey is the cause of a negative key's failure in stores that do
// not know their domain size.
var errNegativeKey = errors.New("key out of range (negative)")

// checkBatch enforces the BatchGetCtx length contract.
func checkBatch(keys []int, dst []float64) {
	if len(keys) != len(dst) {
		panic("storage: BatchGetCtx keys/dst length mismatch")
	}
}

// rangeError is the per-key failure of batch position i whose key lies
// outside the store's domain [0,n).
func rangeError(i, key, n int) KeyError {
	return KeyError{Index: i, Key: key, Err: fmt.Errorf("key out of range [0,%d)", n)}
}

// batchError wraps the failed positions (ascending Index) of a batch, or
// returns nil when there are none.
func batchError(failed []KeyError) error {
	if len(failed) == 0 {
		return nil
	}
	return &BatchError{Failed: failed}
}

// GetAt fetches the positions at (ascending) of a caller's batch keys from s
// with one BatchGetCtx and writes each value it got to dst[at[j]]. It
// appends the failures to failed as KeyErrors at the caller's positions, in
// ascending order, and returns the list; a position that failed is not
// written. A non-batch error (cancellation, an outage of s) comes back whole
// with nothing written and failed as it was. An empty at asks nothing of s.
// It allocates the sub-batch's keys and values, never per key.
//
// Every layer that asks the store below for part of its caller's batch —
// fault injection, retries, the session cache, an MVCC view's overlay
// misses, the coordinator's shard fan-out — does it through GetAt. The
// coalescer's lead fetch does not: joiners from other batches read the
// values it fetched, so they go into its flight, not into one caller's dst.
func GetAt(ctx context.Context, s Store, keys, at []int, dst []float64, failed []KeyError) ([]KeyError, error) {
	if len(at) == 0 {
		return failed, nil
	}
	subKeys := make([]int, len(at))
	for j, p := range at {
		subKeys[j] = keys[p]
	}
	vals := make([]float64, len(at))
	err := s.BatchGetCtx(ctx, subKeys, vals)
	var sub []KeyError
	if err != nil {
		var be *BatchError
		if !errors.As(err, &be) {
			return failed, err
		}
		sub = be.Failed
		failed = slices.Grow(failed, len(sub))
	}
	for j, p := range at {
		if len(sub) > 0 && sub[0].Index == j {
			failed = append(failed, KeyError{Index: p, Key: keys[p], Err: sub[0].Err})
			sub = sub[1:]
			continue
		}
		dst[p] = vals[j]
	}
	return failed, nil
}

// MergeFailed merges two failure lists, each in ascending Index order and
// with no position in both, into one ascending list.
func MergeFailed(a, b []KeyError) []KeyError {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]KeyError, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if a[0].Index < b[0].Index {
			out, a = append(out, a[0]), a[1:]
		} else {
			out, b = append(out, b[0]), b[1:]
		}
	}
	out = append(out, a...)
	return append(out, b...)
}

// FailAt appends a failure with cause err for each position at (ascending)
// of the batch keys to failed, and returns the list. A nil at fails every
// position of keys.
func FailAt(failed []KeyError, keys, at []int, err error) []KeyError {
	if at == nil {
		for i, k := range keys {
			failed = append(failed, KeyError{Index: i, Key: k, Err: err})
		}
		return failed
	}
	for _, p := range at {
		failed = append(failed, KeyError{Index: p, Key: keys[p], Err: err})
	}
	return failed
}

// GetCtx retrieves one coefficient as a batch of one. A per-key failure
// comes back as the *KeyError itself.
func GetCtx(ctx context.Context, s Store, key int) (float64, error) {
	var dst [1]float64
	err := s.BatchGetCtx(ctx, []int{key}, dst[:])
	var be *BatchError
	if errors.As(err, &be) {
		return 0, &be.Failed[0]
	}
	return dst[0], err
}

// Get retrieves one coefficient from a store that cannot fail (experiments,
// examples, tests over in-memory stores); any error panics.
func Get(s Store, key int) float64 {
	v, err := GetCtx(context.Background(), s, key)
	if err != nil {
		panic(fmt.Sprintf("storage: infallible Get failed: %v", err))
	}
	return v
}

// BatchGet retrieves keys into dst from a store that cannot fail; any error
// panics. dst must have the same length as keys.
func BatchGet(s Store, keys []int, dst []float64) {
	if err := s.BatchGetCtx(context.Background(), keys, dst); err != nil {
		panic(fmt.Sprintf("storage: infallible BatchGet failed: %v", err))
	}
}
