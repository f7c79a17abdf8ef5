package storage

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// errFlaky is the transient failure injected by flakyStore.
var errFlaky = errors.New("flaky")

// flakyStore fails the first failures[key] retrievals of each key, then
// serves normally. It counts attempts per key so tests can assert exactly
// how often a wrapper re-asked.
type flakyStore struct {
	*ArrayStore
	mu       sync.Mutex
	failures map[int]int
	attempts map[int]int
}

func newFlakyStore(cells []float64, failures map[int]int) *flakyStore {
	return &flakyStore{
		ArrayStore: NewArrayStore(cells),
		failures:   failures,
		attempts:   make(map[int]int),
	}
}

func (s *flakyStore) attemptsFor(key int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.attempts[key]
}

func (s *flakyStore) getCtx(ctx context.Context, key int) (float64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	s.mu.Lock()
	s.attempts[key]++
	n := s.failures[key]
	if n > 0 {
		s.failures[key] = n - 1
	}
	s.mu.Unlock()
	if n > 0 {
		return 0, &KeyError{Key: key, Err: errFlaky}
	}
	return Get(s.ArrayStore, key), nil
}

func (s *flakyStore) BatchGetCtx(ctx context.Context, keys []int, dst []float64) error {
	var failed []KeyError
	for i, k := range keys {
		v, err := s.getCtx(ctx, k)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			failed = append(failed, KeyError{Index: i, Key: k, Err: errFlaky})
			continue
		}
		dst[i] = v
	}
	if len(failed) > 0 {
		return &BatchError{Failed: failed}
	}
	return nil
}

var _ Store = (*flakyStore)(nil)

func testCells(n int) []float64 {
	cells := make([]float64, n)
	for i := range cells {
		cells[i] = float64(i%13) - 5.5
	}
	return cells
}

func TestFaultStoreZeroConfigIsPassThrough(t *testing.T) {
	cells := testCells(64)
	plain := NewArrayStore(cells)
	faulty := NewFaultStore(NewArrayStore(cells), FaultConfig{})
	ctx := context.Background()
	for k := 0; k < 64; k++ {
		v, err := GetCtx(ctx, faulty, k)
		if err != nil {
			t.Fatalf("GetCtx(%d): %v", k, err)
		}
		if want := Get(plain, k); v != want {
			t.Fatalf("GetCtx(%d) = %g, want %g", k, v, want)
		}
	}
	keys := []int{3, 3, 17, 60}
	got := make([]float64, len(keys))
	want := make([]float64, len(keys))
	if err := faulty.BatchGetCtx(ctx, keys, got); err != nil {
		t.Fatalf("BatchGetCtx: %v", err)
	}
	BatchGet(plain, keys, want)
	for i := range keys {
		if got[i] != want[i] {
			t.Fatalf("batch[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestFaultStoreErrorRateIsDeterministic(t *testing.T) {
	cells := testCells(256)
	cfg := FaultConfig{ErrorRate: 0.4, Seed: 42}
	ctx := context.Background()
	observe := func() map[int]bool {
		s := NewFaultStore(NewArrayStore(cells), cfg)
		failed := make(map[int]bool)
		for k := 0; k < 256; k++ {
			if _, err := GetCtx(ctx, s, k); err != nil {
				if !errors.Is(err, ErrInjected) {
					t.Fatalf("GetCtx(%d): %v, want ErrInjected", k, err)
				}
				var ke *KeyError
				if !errors.As(err, &ke) || ke.Key != k {
					t.Fatalf("GetCtx(%d) error does not carry the key: %v", k, err)
				}
				failed[k] = true
			}
		}
		return failed
	}
	first := observe()
	if len(first) == 0 || len(first) == 256 {
		t.Fatalf("ErrorRate 0.4 failed %d/256 keys", len(first))
	}
	second := observe()
	if len(first) != len(second) {
		t.Fatalf("fault sets differ across runs: %d vs %d", len(first), len(second))
	}
	for k := range first {
		if !second[k] {
			t.Fatalf("key %d failed in run 1 but not run 2", k)
		}
	}
	// A different seed picks a different fault set.
	other := NewFaultStore(NewArrayStore(cells), FaultConfig{ErrorRate: 0.4, Seed: 1042})
	same := true
	for k := 0; k < 256; k++ {
		_, err := GetCtx(ctx, other, k)
		if (err != nil) != first[k] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 1042 produced identical fault sets")
	}
}

func TestFaultStoreErrorEverySchedule(t *testing.T) {
	s := NewFaultStore(NewArrayStore(testCells(32)), FaultConfig{ErrorEvery: 3})
	ctx := context.Background()
	for call := 1; call <= 9; call++ {
		_, err := GetCtx(ctx, s, call%32)
		if wantErr := call%3 == 0; (err != nil) != wantErr {
			t.Fatalf("call %d: err = %v, want failure %v", call, err, wantErr)
		}
	}
	// Each key of a batch counts one call: calls 10..15, so batch indices
	// landing on calls 12 and 15 fail.
	keys := []int{1, 2, 3, 4, 5, 6}
	dst := make([]float64, len(keys))
	err := s.BatchGetCtx(ctx, keys, dst)
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("BatchGetCtx: %v, want *BatchError", err)
	}
	if len(be.Failed) != 2 || be.Failed[0].Index != 2 || be.Failed[1].Index != 5 {
		t.Fatalf("failed = %v, want indices 2 and 5", be.Failed)
	}
}

func TestFaultStoreKeyMatchRestrictsFaults(t *testing.T) {
	cfg := FaultConfig{ErrorRate: 1, KeyMatch: func(key int) bool { return key%2 == 0 }}
	s := NewFaultStore(NewArrayStore(testCells(16)), cfg)
	ctx := context.Background()
	for k := 0; k < 16; k++ {
		_, err := GetCtx(ctx, s, k)
		if wantErr := k%2 == 0; (err != nil) != wantErr {
			t.Fatalf("key %d: err = %v, want failure %v", k, err, wantErr)
		}
	}
}

func TestFaultStoreCustomError(t *testing.T) {
	boom := errors.New("boom")
	s := NewFaultStore(NewArrayStore(testCells(4)), FaultConfig{ErrorRate: 1, Err: boom})
	if _, err := GetCtx(context.Background(), s, 1); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestFaultStoreDelayObservesCancellation(t *testing.T) {
	s := NewFaultStore(NewArrayStore(testCells(4)), FaultConfig{
		DelayRate: 1, Delay: time.Hour,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := GetCtx(ctx, s, 2)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancelled delay still took %v", elapsed)
	}
	dst := make([]float64, 2)
	if err := s.BatchGetCtx(ctx, []int{0, 1}, dst); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("batch err = %v, want deadline exceeded", err)
	}
}

func TestFaultStoreBatchPartialFailure(t *testing.T) {
	cells := testCells(128)
	cfg := FaultConfig{ErrorRate: 0.5, Seed: 7}
	s := NewFaultStore(NewArrayStore(cells), cfg)
	keys := make([]int, 128)
	for i := range keys {
		keys[i] = i
	}
	dst := make([]float64, len(keys))
	const sentinel = -999.25
	for i := range dst {
		dst[i] = sentinel
	}
	err := s.BatchGetCtx(context.Background(), keys, dst)
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("BatchGetCtx: %v, want *BatchError", err)
	}
	failedAt := make(map[int]bool)
	prev := -1
	for _, ke := range be.Failed {
		if ke.Index <= prev {
			t.Fatalf("failed indices not ascending: %v", be.Failed)
		}
		prev = ke.Index
		if !errors.Is(ke.Err, ErrInjected) {
			t.Fatalf("cause = %v", ke.Err)
		}
		failedAt[ke.Index] = true
	}
	for i, k := range keys {
		if failedAt[i] {
			if dst[i] != sentinel {
				t.Fatalf("failed position %d was written: %g", i, dst[i])
			}
			continue
		}
		if dst[i] != cells[k] {
			t.Fatalf("dst[%d] = %g, want %g", i, dst[i], cells[k])
		}
	}
	// The same keys fail on the per-key GetCtx path.
	for i, k := range keys {
		_, gerr := GetCtx(context.Background(), s, k)
		if (gerr != nil) != failedAt[i] {
			t.Fatalf("key %d: GetCtx failure %v, batch failure %v", k, gerr != nil, failedAt[i])
		}
	}
}

func TestWrappersForwardConcurrency(t *testing.T) {
	plain, err := NewCachedStore(NewArrayStore(testCells(4)), Unbounded)
	if err != nil {
		t.Fatal(err)
	}
	conc := NewHashStore()
	wrappers := map[string]func(Store) Store{
		"FaultStore":        func(s Store) Store { return NewFaultStore(s, FaultConfig{}) },
		"RetryStore":        func(s Store) Store { return NewRetryStore(s, RetryConfig{}) },
		"InstrumentedStore": func(s Store) Store { return NewInstrumentedStore(s) },
	}
	for name, wrap := range wrappers {
		if IsConcurrent(wrap(plain)) {
			t.Fatalf("%s over a non-concurrent store must not claim concurrency", name)
		}
		if !IsConcurrent(wrap(conc)) {
			t.Fatalf("%s over a concurrent store must stay concurrent", name)
		}
	}
}

func TestCachedStoreDoesNotCacheErrors(t *testing.T) {
	flaky := newFlakyStore(testCells(16), map[int]int{3: 1})
	cs, err := NewCachedStore(flaky, Unbounded)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := GetCtx(ctx, cs, 3); !errors.Is(err, errFlaky) {
		t.Fatalf("first GetCtx = %v, want flaky failure", err)
	}
	v, err := GetCtx(ctx, cs, 3)
	if err != nil {
		t.Fatalf("second GetCtx: %v (the failure was cached)", err)
	}
	if want := Get(flaky.ArrayStore, 3); v != want {
		t.Fatalf("recovered value = %g, want %g", v, want)
	}
	if got := flaky.attemptsFor(3); got != 2 {
		t.Fatalf("inner attempts = %d, want 2 (error uncached, success cached)", got)
	}
	// Third read must come from the cache.
	if _, err := GetCtx(ctx, cs, 3); err != nil {
		t.Fatal(err)
	}
	if got := flaky.attemptsFor(3); got != 2 {
		t.Fatalf("inner attempts after cached read = %d, want 2", got)
	}
}

func TestCachedStoreBatchGetCtxPartialFailure(t *testing.T) {
	cells := testCells(16)
	flaky := newFlakyStore(cells, map[int]int{5: 1})
	cs, err := NewCachedStore(flaky, Unbounded)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Duplicate failing key: both caller positions must be reported.
	keys := []int{5, 2, 5, 9}
	dst := make([]float64, len(keys))
	berr := cs.BatchGetCtx(ctx, keys, dst)
	var be *BatchError
	if !errors.As(berr, &be) {
		t.Fatalf("BatchGetCtx: %v, want *BatchError", berr)
	}
	if len(be.Failed) != 2 || be.Failed[0].Index != 0 || be.Failed[1].Index != 2 {
		t.Fatalf("failed = %+v, want caller indices 0 and 2", be.Failed)
	}
	if dst[1] != cells[2] || dst[3] != cells[9] {
		t.Fatalf("good positions wrong: %v", dst)
	}
	// The failed miss was not cached; the batch succeeds wholesale now.
	if err := cs.BatchGetCtx(ctx, keys, dst); err != nil {
		t.Fatalf("retry batch: %v", err)
	}
	if dst[0] != cells[5] || dst[2] != cells[5] {
		t.Fatalf("recovered values wrong: %v", dst)
	}
}

// holdStore holds retrievals open until the test releases them,
// exposing the coalescing flight lifecycle to deterministic inspection.
type holdStore struct {
	*ArrayStore
	entered chan int   // receives the key when a retrieval reaches the store
	release chan error // the held retrieval returns this error (nil = serve)
}

func (s *holdStore) ConcurrentSafe() bool { return true }

func (s *holdStore) getCtx(key int) (float64, error) {
	s.entered <- key
	if err := <-s.release; err != nil {
		return 0, &KeyError{Key: key, Err: err}
	}
	return Get(s.ArrayStore, key), nil
}

func (s *holdStore) BatchGetCtx(_ context.Context, keys []int, dst []float64) error {
	var failed []KeyError
	for i, k := range keys {
		v, err := s.getCtx(k)
		if err != nil {
			var ke *KeyError
			errors.As(err, &ke)
			failed = append(failed, KeyError{Index: i, Key: k, Err: ke.Err})
			continue
		}
		dst[i] = v
	}
	if len(failed) > 0 {
		return &BatchError{Failed: failed}
	}
	return nil
}

var _ Store = (*holdStore)(nil)

func TestCoalescingStoreSharesLeaderError(t *testing.T) {
	hold := &holdStore{
		ArrayStore: NewArrayStore(testCells(8)),
		entered:    make(chan int, 4),
		release:    make(chan error, 4),
	}
	cs := NewCoalescingStore(hold)
	ctx := context.Background()
	boom := errors.New("boom")

	type result struct {
		v   float64
		err error
	}
	leader := make(chan result, 1)
	go func() {
		v, err := GetCtx(ctx, cs, 5)
		leader <- result{v, err}
	}()
	<-hold.entered // the flight is registered and the leader holds it open

	joiner := make(chan result, 1)
	go func() {
		v, err := GetCtx(ctx, cs, 5)
		joiner <- result{v, err}
	}()
	time.Sleep(20 * time.Millisecond) // let the joiner reach the flight wait
	hold.release <- boom

	lr, jr := <-leader, <-joiner
	if !errors.Is(lr.err, boom) {
		t.Fatalf("leader err = %v", lr.err)
	}
	if !errors.Is(jr.err, boom) {
		t.Fatalf("joiner err = %v (the leader's failure was not shared)", jr.err)
	}
	if len(hold.entered) != 0 {
		t.Fatal("joiner reached the inner store; the fetch was not coalesced")
	}
	// The failed flight must not poison the key: a fresh retrieval succeeds.
	done := make(chan result, 1)
	go func() {
		v, err := GetCtx(ctx, cs, 5)
		done <- result{v, err}
	}()
	<-hold.entered
	hold.release <- nil
	if r := <-done; r.err != nil || r.v != Get(hold.ArrayStore, 5) {
		t.Fatalf("post-failure retrieval = (%g, %v)", r.v, r.err)
	}
}

func TestCoalescingStoreJoinerCancellation(t *testing.T) {
	hold := &holdStore{
		ArrayStore: NewArrayStore(testCells(8)),
		entered:    make(chan int, 4),
		release:    make(chan error, 4),
	}
	cs := NewCoalescingStore(hold)
	leader := make(chan error, 1)
	go func() {
		_, err := GetCtx(context.Background(), cs, 2)
		leader <- err
	}()
	<-hold.entered

	jctx, jcancel := context.WithCancel(context.Background())
	joiner := make(chan error, 1)
	go func() {
		_, err := GetCtx(jctx, cs, 2)
		joiner <- err
	}()
	time.Sleep(10 * time.Millisecond)
	jcancel()
	select {
	case err := <-joiner:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("joiner err = %v, want Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled joiner is stuck on the flight")
	}
	// The leader is unaffected by the joiner's cancellation.
	hold.release <- nil
	if err := <-leader; err != nil {
		t.Fatalf("leader err = %v", err)
	}
}

func TestCoalescingStoreBatchFaultsUnderRace(t *testing.T) {
	cells := testCells(512)
	faulty := NewFaultStore(NewArrayStore(cells), FaultConfig{ErrorRate: 0.3, Seed: 11})
	cs := NewCoalescingStore(faulty)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			keys := make([]int, 64)
			for i := range keys {
				keys[i] = (g*17 + i*3) % 512 // overlapping key sets
			}
			dst := make([]float64, len(keys))
			err := cs.BatchGetCtx(ctx, keys, dst)
			if err == nil {
				errs[g] = nil
				return
			}
			var be *BatchError
			if !errors.As(err, &be) {
				errs[g] = err
				return
			}
			failedAt := make(map[int]bool)
			for _, ke := range be.Failed {
				if !errors.Is(ke.Err, ErrInjected) {
					errs[g] = ke.Err
					return
				}
				failedAt[ke.Index] = true
			}
			for i, k := range keys {
				if !failedAt[i] && dst[i] != cells[k] {
					errs[g] = errors.New("wrong value on good position")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}
