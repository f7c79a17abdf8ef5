package storage

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Observability for the storage layer. Observe installs a metrics bundle
// into a package-level atomic pointer; the layers whose counts nothing else
// keeps (retry, fault injection) check the pointer on their counting
// paths — the stack's own counts live in Counters — and the
// InstrumentedStore wrapper times the retrieval calls themselves. With no
// registry observed the pointer is nil and every site is one atomic load
// plus a branch — no allocation, no time.Now.

// storageMetrics is the package's metric bundle, built once per Observe.
type storageMetrics struct {
	batchSeconds   *obs.Histogram // latency of retrieval batches
	retryAttempts  *obs.Counter
	retryExhausted *obs.Counter
	faultErrors    *obs.Counter
	faultDelays    *obs.Counter
}

var stMetrics atomic.Pointer[storageMetrics]

// Observe points the storage layer's instrumentation at reg. Pass nil to
// uninstall (the default state): all instrumentation sites degrade to an
// atomic load and a nil check.
func Observe(reg *obs.Registry) {
	if reg == nil {
		stMetrics.Store(nil)
		return
	}
	stMetrics.Store(&storageMetrics{
		batchSeconds: reg.Histogram("wvq_storage_batchget_seconds",
			"Latency of batched coefficient retrievals.", nil),
		retryAttempts: reg.Counter("wvq_storage_retry_attempts_total",
			"Retrieval attempts issued by the retry layer, including first tries."),
		retryExhausted: reg.Counter("wvq_storage_retry_exhausted_total",
			"Keys whose retrieval failed on every retry attempt."),
		faultErrors: reg.Counter("wvq_storage_faults_injected_total",
			"Failures injected by the fault layer.", obs.L("kind", "error")),
		faultDelays: reg.Counter("wvq_storage_faults_injected_total",
			"Failures injected by the fault layer.", obs.L("kind", "delay")),
	})
}

// stObs returns the installed bundle, or nil when observation is off.
func stObs() *storageMetrics { return stMetrics.Load() }

// obsRetryAttempts counts retrieval attempts issued by the retry layer.
func obsRetryAttempts(n int64) {
	if m := stObs(); m != nil {
		m.retryAttempts.Add(n)
	}
}

// obsRetryExhausted counts keys whose attempts ran out.
func obsRetryExhausted(n int64) {
	if m := stObs(); m != nil {
		m.retryExhausted.Add(n)
	}
}

// obsFaultErrors counts injected failures.
func obsFaultErrors(n int64) {
	if m := stObs(); m != nil {
		m.faultErrors.Add(n)
	}
}

// obsFaultDelay counts injected delays.
func obsFaultDelay() {
	if m := stObs(); m != nil {
		m.faultDelays.Inc()
	}
}

// InstrumentedStore is the one place a stack counts its retrievals: it adds
// the keys of every batch asked of the store it wraps to Counters the
// stack's owner holds, and times the batch against the observed registry
// (wvq_storage_batchget_seconds). When no registry is observed the timing
// costs one atomic load per call.
type InstrumentedStore struct {
	inner  Store
	counts *Counters
}

// NewInstrumentedStore wraps inner, counting into counts.
func NewInstrumentedStore(inner Store, counts *Counters) *InstrumentedStore {
	return &InstrumentedStore{inner: inner, counts: counts}
}

// BatchGetCtx implements Store, counting the batch's keys and timing the
// batch when observed.
func (s *InstrumentedStore) BatchGetCtx(ctx context.Context, keys []int, dst []float64) error {
	s.counts.retrievals.Add(int64(len(keys)))
	m := stObs()
	if m == nil {
		return s.inner.BatchGetCtx(ctx, keys, dst)
	}
	start := time.Now()
	err := s.inner.BatchGetCtx(ctx, keys, dst)
	m.batchSeconds.Observe(time.Since(start).Seconds())
	return err
}

// NonzeroCount implements Store.
func (s *InstrumentedStore) NonzeroCount() int { return s.inner.NonzeroCount() }
