package storage

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// ErrInjected is the default error a FaultStore returns for a faulted
// retrieval. Tests match it with errors.Is through every wrapper layer.
var ErrInjected = errors.New("storage: injected fault")

// FaultConfig describes a deterministic fault schedule. Every decision is a
// pure function of (Seed, key) or of the store's call counter, so a given
// configuration produces the same faults on every run — reproducible chaos,
// not flaky tests.
type FaultConfig struct {
	// ErrorRate is the fraction of keys in [0,1] whose retrieval fails. The
	// decision hashes (Seed, key), so a key either always fails or never
	// does, independent of call order.
	ErrorRate float64
	// ErrorEvery fails every Nth retrieval (counting each key of a batch as
	// one retrieval, across the store's lifetime). 0 disables.
	// Unlike ErrorRate it is order-dependent, which is the point: it drives
	// transient-failure schedules that retries can beat.
	ErrorEvery int
	// DelayRate is the fraction of keys whose retrieval is delayed by Delay
	// before being served. Decided by hashing (Seed+1, key).
	DelayRate float64
	// DelayEvery delays every Nth retrieval. 0 disables.
	DelayEvery int
	// Delay is the injected latency for delayed retrievals; it is observed
	// through the context, so a cancelled caller does not sit out the delay.
	Delay time.Duration
	// KeyMatch restricts all key-based decisions (ErrorRate, DelayRate) to
	// the keys it accepts; nil means every key is eligible.
	KeyMatch func(key int) bool
	// Seed drives the per-key hashes.
	Seed uint64
	// Err is the error injected for faulted keys; nil means ErrInjected.
	Err error
}

// FaultStore wraps a Store and injects deterministic failures and latency
// into its retrievals. With a zero-value config it is a pure pass-through,
// byte-identical to the wrapped store.
type FaultStore struct {
	inner Store
	cfg   FaultConfig
	calls atomic.Int64 // retrievals seen, for Nth-call schedules
}

// NewFaultStore wraps inner with the given fault schedule.
func NewFaultStore(inner Store, cfg FaultConfig) *FaultStore {
	if cfg.Err == nil {
		cfg.Err = ErrInjected
	}
	return &FaultStore{inner: inner, cfg: cfg}
}

// splitmix64 is the SplitMix64 finalizer — a cheap, well-mixed hash used to
// turn (seed, key) into a reproducible uniform variate.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// keyFraction maps (seed, key) to a uniform value in [0,1).
func keyFraction(seed uint64, key int) float64 {
	return float64(splitmix64(seed^uint64(key))>>11) / (1 << 53)
}

// errKey reports whether key's retrievals fail under the rate schedule.
func (s *FaultStore) errKey(key int) bool {
	if s.cfg.ErrorRate <= 0 || (s.cfg.KeyMatch != nil && !s.cfg.KeyMatch(key)) {
		return false
	}
	return keyFraction(s.cfg.Seed, key) < s.cfg.ErrorRate
}

// delayKey reports whether key's retrievals are delayed under the rate
// schedule.
func (s *FaultStore) delayKey(key int) bool {
	if s.cfg.DelayRate <= 0 || (s.cfg.KeyMatch != nil && !s.cfg.KeyMatch(key)) {
		return false
	}
	return keyFraction(s.cfg.Seed+1, key) < s.cfg.DelayRate
}

// tick advances the lifetime call counter by one retrieval and reports the
// Nth-call decisions for it.
func (s *FaultStore) tick() (errNow, delayNow bool) {
	if s.cfg.ErrorEvery <= 0 && s.cfg.DelayEvery <= 0 {
		return false, false
	}
	n := s.calls.Add(1)
	errNow = s.cfg.ErrorEvery > 0 && n%int64(s.cfg.ErrorEvery) == 0
	delayNow = s.cfg.DelayEvery > 0 && n%int64(s.cfg.DelayEvery) == 0
	return errNow, delayNow
}

// sleepCtx waits for d or for the context to end, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// BatchGetCtx implements Store. Each key of the batch counts one
// retrieval for the Nth-call schedules; at most one Delay is injected per
// batch (latency coalesces exactly like the I/O it models). Faulted keys are
// withheld from the wrapped store and reported via *BatchError alongside any
// failures of the wrapped store itself.
func (s *FaultStore) BatchGetCtx(ctx context.Context, keys []int, dst []float64) error {
	checkBatch(keys, dst)
	var (
		injected []KeyError
		delay    bool
		pass     = make([]int, 0, len(keys)) // positions that reach the wrapped store
	)
	for i, k := range keys {
		errNow, delayNow := s.tick()
		delay = delay || delayNow || s.delayKey(k)
		if errNow || s.errKey(k) {
			injected = append(injected, KeyError{Index: i, Key: k, Err: s.cfg.Err})
			continue
		}
		pass = append(pass, i)
	}
	obsFaultErrors(int64(len(injected)))
	if delay {
		obsFaultDelay()
		if err := sleepCtx(ctx, s.cfg.Delay); err != nil {
			return err
		}
	}
	failed, err := GetAt(ctx, s.inner, keys, pass, dst, nil)
	if err != nil {
		return err
	}
	return batchError(MergeFailed(injected, failed))
}

// NonzeroCount implements Store.
func (s *FaultStore) NonzeroCount() int { return s.inner.NonzeroCount() }
