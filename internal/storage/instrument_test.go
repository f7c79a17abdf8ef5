package storage

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// observeTest installs a fresh registry for the storage layer and uninstalls
// it on cleanup so other tests see the default (off) state.
func observeTest(t *testing.T) *obs.Registry {
	t.Helper()
	reg := obs.NewRegistry()
	Observe(reg)
	t.Cleanup(func() { Observe(nil) })
	return reg
}

func testDense() []float64 {
	vals := make([]float64, 16)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	return vals
}

func TestInstrumentedStoreTimesRetrievals(t *testing.T) {
	reg := observeTest(t)
	s := NewInstrumentedStore(NewArrayStore(testDense()))

	if v := Get(s, 3); v != 4 {
		t.Fatalf("Get = %v", v)
	}
	dst := make([]float64, 2)
	BatchGet(s, []int{0, 5}, dst)
	ctx := context.Background()
	if _, err := GetCtx(ctx, s, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.BatchGetCtx(ctx, []int{2, 3, 4}, make([]float64, 3)); err != nil {
		t.Fatal(err)
	}

	// Every retrieval is a batch; the two single-key adapters are batches
	// of one.
	snap := reg.Snapshot()
	if snap["wvq_storage_batchget_seconds_count"] != 4 {
		t.Fatalf("batch observations = %v", snap["wvq_storage_batchget_seconds_count"])
	}
	if snap["wvq_storage_batchget_keys_total"] != 7 {
		t.Fatalf("batch keys = %v", snap["wvq_storage_batchget_keys_total"])
	}
}

// TestCachedStoreCountsItsOwn: a session cache keeps its hits and misses
// itself and pushes nothing into an installed registry — no served process
// builds one, so a pushed family would only ever read 0.
func TestCachedStoreCountsItsOwn(t *testing.T) {
	reg := observeTest(t)
	cs := NewCachedStore(NewArrayStore(testDense()))
	Get(cs, 1) // miss
	Get(cs, 1) // hit
	Get(cs, 2) // miss
	if cs.Hits() != 1 || cs.Retrievals() != 2 {
		t.Fatalf("hits %d, misses %d; want 1 and 2", cs.Hits(), cs.Retrievals())
	}
	for name := range reg.Snapshot() {
		if strings.HasPrefix(name, "wvq_storage_cache_") {
			t.Fatalf("cached store pushed %s", name)
		}
	}
}

func TestRetryAndFaultCountersMirrored(t *testing.T) {
	reg := observeTest(t)
	// Every third retrieval fails once; two attempts recover it.
	faulty := NewFaultStore(NewArrayStore(testDense()), FaultConfig{ErrorEvery: 3})
	retr := NewRetryStore(faulty, RetryConfig{MaxAttempts: 2, BaseDelay: time.Microsecond})
	ctx := context.Background()
	dst := make([]float64, 6)
	if err := retr.BatchGetCtx(ctx, []int{0, 1, 2, 3, 4, 5}, dst); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap[`wvq_storage_faults_injected_total{kind="error"}`] == 0 {
		t.Fatal("no injected faults counted")
	}
	// First round issues 6 attempts; recovered keys add a second round.
	if snap["wvq_storage_retry_attempts_total"] <= 6 {
		t.Fatalf("retry attempts = %v", snap["wvq_storage_retry_attempts_total"])
	}
	if snap["wvq_storage_retry_exhausted_total"] != 0 {
		t.Fatalf("exhausted = %v on a recovering store", snap["wvq_storage_retry_exhausted_total"])
	}

	// A store that always fails exhausts the budget.
	dead := NewFaultStore(NewArrayStore(testDense()), FaultConfig{ErrorRate: 1})
	dretr := NewRetryStore(dead, RetryConfig{MaxAttempts: 2, BaseDelay: time.Microsecond})
	err := dretr.BatchGetCtx(ctx, []int{0, 1}, make([]float64, 2))
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v", err)
	}
	snap = reg.Snapshot()
	if snap["wvq_storage_retry_exhausted_total"] != 2 {
		t.Fatalf("exhausted = %v", snap["wvq_storage_retry_exhausted_total"])
	}
}

// TestUnobservedPassThroughZeroAllocs pins the nil fast path of the
// instrumentation wrapper itself: with no registry observed, a retrieval
// through the wrapper must not allocate.
func TestUnobservedPassThroughZeroAllocs(t *testing.T) {
	Observe(nil)
	s := NewInstrumentedStore(NewArrayStore(testDense()))
	ctx, keys, dst := context.Background(), []int{3}, make([]float64, 1)
	if n := testing.AllocsPerRun(100, func() {
		_ = s.BatchGetCtx(ctx, keys, dst)
	}); n != 0 {
		t.Fatalf("unobserved retrieval allocated %v times per run", n)
	}
}
