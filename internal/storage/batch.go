package storage

import (
	"context"
	"errors"
	"fmt"
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
