package sched

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/penalty"
	"repro/internal/sparse"
	"repro/internal/storage"
	"repro/internal/storetest"
)

// fixture builds a deterministic batch plan and a hash store holding a
// pseudo-random coefficient vector.
func fixture(t testing.TB, queries, coeffsPerQuery, domain int, seed int64) (*core.Plan, *storetest.Map, float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	vectors := make([]sparse.Vector, queries)
	for q := range vectors {
		v := sparse.New()
		for len(v) < coeffsPerQuery {
			v[rng.Intn(domain)] = rng.NormFloat64()
		}
		vectors[q] = v
	}
	plan, err := core.NewPlan(vectors, nil)
	if err != nil {
		t.Fatal(err)
	}
	store := storetest.NewMap()
	var mass float64
	for k := 0; k < domain; k++ {
		if rng.Float64() < 0.6 {
			v := rng.NormFloat64() * 10
			store.Add(k, v)
			if v < 0 {
				mass -= v
			} else {
				mass += v
			}
		}
	}
	return plan, store, mass
}

// TestScheduledMatchesUnscheduled is the determinism acceptance test: a run
// advanced by the scheduler — under any slice size, worker count, priority
// and competing load — lands on exactly the estimates an unscheduled
// sequence of single steps produces at the same budget.
func TestScheduledMatchesUnscheduled(t *testing.T) {
	plan, store, mass := fixture(t, 12, 40, 2048, 1)
	distinct := plan.DistinctCoefficients()
	budgets := []int{1, 3, 17, distinct / 3, distinct - 1, distinct, 0} // 0 = exact
	for _, slice := range []int{1, 7, 64, 1000} {
		for _, workers := range []int{1, 4} {
			s := New(Config{Slice: slice, Workers: workers, MaxActive: 8})
			var tickets []*Ticket
			for _, b := range budgets {
				run := core.NewRun(plan, penalty.SSE{}, store)
				tk, err := s.Submit(context.Background(), Job{Run: run, Budget: b, Mass: mass})
				if err != nil {
					t.Fatal(err)
				}
				tickets = append(tickets, tk)
			}
			for i, tk := range tickets {
				got, err := tk.Final()
				if err != nil {
					t.Fatalf("slice %d workers %d budget %d: %v", slice, workers, budgets[i], err)
				}
				ref := core.NewRun(plan, penalty.SSE{}, store)
				want := budgets[i]
				if want <= 0 || want > distinct {
					want = distinct
				}
				for ref.Retrieved() < want {
					if _, err := ref.StepBatchCtx(context.Background(), 1); err != nil {
						t.Fatal(err)
					}
				}
				if got.Retrieved != want {
					t.Fatalf("slice %d workers %d budget %d: retrieved %d, want %d",
						slice, workers, budgets[i], got.Retrieved, want)
				}
				for q, e := range got.Estimates {
					if e != ref.Estimates()[q] {
						t.Fatalf("slice %d workers %d budget %d query %d: %g != %g",
							slice, workers, budgets[i], q, e, ref.Estimates()[q])
					}
				}
				if got.Done != ref.Done() {
					t.Fatalf("done mismatch at budget %d", budgets[i])
				}
				if !got.Done {
					wantBounds := ref.QueryErrorBounds(mass)
					for q, b := range got.Bounds {
						if b != wantBounds[q] {
							t.Fatalf("bound mismatch: %g != %g", b, wantBounds[q])
						}
					}
				}
			}
			s.Close()
		}
	}
}

// TestProgressBoundsTightenMonotonically checks the streaming contract:
// snapshots arrive in retrieval order and every per-query bound is
// non-increasing (the importance-ordered progression retires the largest
// remaining |coefficient| first).
func TestProgressBoundsTightenMonotonically(t *testing.T) {
	plan, store, mass := fixture(t, 8, 60, 4096, 2)
	s := New(Config{Slice: 16, Workers: 2})
	defer s.Close()
	run := core.NewRun(plan, penalty.SSE{}, store)
	tk, err := s.Submit(context.Background(), Job{Run: run, Mass: mass})
	if err != nil {
		t.Fatal(err)
	}
	lastRetrieved := -1
	lastBounds := make([]float64, plan.NumQueries())
	for i := range lastBounds {
		lastBounds[i] = 1e300
	}
	snapshots := 0
	for {
		select {
		case p := <-tk.Progress():
			if p.Retrieved <= lastRetrieved {
				t.Fatalf("snapshot out of order: %d after %d", p.Retrieved, lastRetrieved)
			}
			lastRetrieved = p.Retrieved
			for q, b := range p.Bounds {
				if b > lastBounds[q] {
					t.Fatalf("bound for query %d widened: %g > %g", q, b, lastBounds[q])
				}
				lastBounds[q] = b
			}
			snapshots++
		case <-tk.Done():
			// Drain any snapshot still parked in the latest-wins channel.
			select {
			case <-tk.Progress():
				snapshots++
			default:
			}
			final, err := tk.Final()
			if err != nil {
				t.Fatal(err)
			}
			if !final.Done || final.Bounds != nil {
				t.Fatalf("final snapshot not exact: %+v", final)
			}
			if snapshots == 0 {
				t.Fatal("no progress snapshots observed")
			}
			return
		}
	}
}

// TestAdmissionControl fills the run table and queue with runs blocked on a
// gated store, then checks the third tier is rejected with ErrOverloaded
// and that queued work is promoted when a slot frees.
func TestAdmissionControl(t *testing.T) {
	plan, store, _ := fixture(t, 2, 30, 1024, 3)
	gate := &gatedStore{inner: store, gate: make(chan struct{})}
	s := New(Config{MaxActive: 1, MaxQueued: 1, Slice: 8, Workers: 1, RetryAfter: 3 * time.Second})
	defer s.Close()

	submit := func() (*Ticket, error) {
		return s.Submit(context.Background(), Job{Run: core.NewRun(plan, penalty.SSE{}, gate)})
	}
	active, err := submit()
	if err != nil {
		t.Fatal(err)
	}
	gate.waitBlocked(t) // the active run is now stuck mid-slice
	queued, err := submit()
	if err != nil {
		t.Fatalf("queue slot should admit: %v", err)
	}
	if _, err := submit(); err != ErrOverloaded {
		t.Fatalf("expected ErrOverloaded, got %v", err)
	}
	if st := s.Stats(); st.Rejected != 1 || st.Active != 1 || st.Queued != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if s.RetryAfter() != 3*time.Second {
		t.Fatalf("RetryAfter = %v", s.RetryAfter())
	}
	gate.release() // let everything finish
	if _, err := active.Final(); err != nil {
		t.Fatal(err)
	}
	if _, err := queued.Final(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Completed != 2 || st.Active != 0 || st.Queued != 0 {
		t.Fatalf("stats after drain = %+v", st)
	}
}

// TestCancellation covers both shapes: cancelling a queued run and
// cancelling an active one mid-progression. Both tickets complete with the
// context error and keep the progress reached.
func TestCancellation(t *testing.T) {
	plan, store, _ := fixture(t, 2, 30, 1024, 4)
	gate := &gatedStore{inner: store, gate: make(chan struct{})}
	s := New(Config{MaxActive: 1, MaxQueued: 2, Slice: 4, Workers: 1})
	defer s.Close()

	active, err := s.Submit(context.Background(), Job{Run: core.NewRun(plan, penalty.SSE{}, gate)})
	if err != nil {
		t.Fatal(err)
	}
	gate.waitBlocked(t)
	queued, err := s.Submit(context.Background(), Job{Run: core.NewRun(plan, penalty.SSE{}, gate)})
	if err != nil {
		t.Fatal(err)
	}
	queued.Cancel()
	active.Cancel()
	gate.release()
	if _, err := active.Final(); err != context.Canceled {
		t.Fatalf("active: err = %v, want context.Canceled", err)
	}
	if p, err := queued.Final(); err != context.Canceled || p.Retrieved != 0 {
		t.Fatalf("queued: p = %+v err = %v", p, err)
	}
	if st := s.Stats(); st.Cancelled != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDeadline: a context deadline stops the run but the ticket still
// carries the partial progressive state — the latency-budget shape.
func TestDeadline(t *testing.T) {
	plan, store, mass := fixture(t, 4, 50, 4096, 5)
	slow := &sleepStore{inner: store, delay: 2 * time.Millisecond}
	s := New(Config{Slice: 8, Workers: 1})
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	tk, err := s.Submit(ctx, Job{Run: core.NewRun(plan, penalty.SSE{}, slow), Mass: mass})
	if err != nil {
		t.Fatal(err)
	}
	p, err := tk.Final()
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if p.Done {
		t.Fatal("run should not have completed inside the deadline")
	}
	if p.Retrieved == 0 || p.Bounds == nil {
		t.Fatalf("expected partial progress with bounds, got %+v", p)
	}
}

// TestFairnessUnderMixedLoad runs one huge exact batch against many small
// progressive ones on a slow store and checks the small runs finish long
// before the big one — budget slicing prevents head-of-line blocking.
func TestFairnessUnderMixedLoad(t *testing.T) {
	bigPlan, store, _ := fixture(t, 16, 120, 8192, 6)
	smallPlan, _, _ := fixture(t, 2, 10, 8192, 7)
	slow := &sleepStore{inner: store, delay: 100 * time.Microsecond}
	s := New(Config{Slice: 16, Workers: 1})
	defer s.Close()

	big, err := s.Submit(context.Background(), Job{Run: core.NewRun(bigPlan, penalty.SSE{}, slow)})
	if err != nil {
		t.Fatal(err)
	}
	const smalls = 4
	smallDone := make(chan struct{}, smalls)
	for i := 0; i < smalls; i++ {
		tk, err := s.Submit(context.Background(), Job{Run: core.NewRun(smallPlan, penalty.SSE{}, slow)})
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			tk.Final()
			smallDone <- struct{}{}
		}()
	}
	for i := 0; i < smalls; i++ {
		select {
		case <-smallDone:
		case <-big.Done():
			t.Fatal("huge exact batch finished before the small progressive runs: starvation")
		}
	}
	if _, err := big.Final(); err != nil {
		t.Fatal(err)
	}
}

// TestPriorityWeights: higher priority earns proportionally larger slices.
func TestPriorityWeights(t *testing.T) {
	if PriorityLow.weight() != 1 || PriorityNormal.weight() != 2 || PriorityHigh.weight() != 4 {
		t.Fatal("unexpected priority weights")
	}
	plan, store, _ := fixture(t, 4, 80, 4096, 8)
	gate := &gatedStore{inner: store, gate: make(chan struct{})}
	s := New(Config{Slice: 10, Workers: 1, MaxActive: 4})
	defer s.Close()
	// Hold the single worker on a decoy so both measured runs start queued
	// in the table and get their first slices back-to-back.
	decoy, _ := s.Submit(context.Background(), Job{Run: core.NewRun(plan, penalty.SSE{}, gate)})
	gate.waitBlocked(t)
	hi, _ := s.Submit(context.Background(), Job{Run: core.NewRun(plan, penalty.SSE{}, store), Budget: 40, Priority: PriorityHigh})
	lo, _ := s.Submit(context.Background(), Job{Run: core.NewRun(plan, penalty.SSE{}, store), Budget: 40, Priority: PriorityLow})
	gate.release()
	hp, err := hi.Final()
	if err != nil {
		t.Fatal(err)
	}
	lp, err := lo.Final()
	if err != nil {
		t.Fatal(err)
	}
	if hp.Retrieved != 40 || lp.Retrieved != 40 {
		t.Fatalf("budgets not honored: high %d low %d", hp.Retrieved, lp.Retrieved)
	}
	decoy.Cancel()
	<-decoy.Done() // resolves either way: completed fast or cancelled
}

// TestCoalescingAcrossRuns drives two concurrent runs over the same plan
// through a coalescing store and requires cross-run fetch sharing to occur.
func TestCoalescingAcrossRuns(t *testing.T) {
	plan, store, _ := fixture(t, 8, 60, 2048, 9)
	slow := &sleepStore{inner: store, delay: 200 * time.Microsecond}
	co := storage.NewCoalescingStore(slow)
	s := New(Config{Slice: 32, Workers: 4})
	defer s.Close()
	var tickets []*Ticket
	for i := 0; i < 4; i++ {
		tk, err := s.Submit(context.Background(), Job{Run: core.NewRun(plan, penalty.SSE{}, co)})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	for _, tk := range tickets {
		p, err := tk.Final()
		if err != nil {
			t.Fatal(err)
		}
		ref := core.NewRun(plan, penalty.SSE{}, store)
		if err := ref.RunToCompletionCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
		for q, e := range p.Estimates {
			if e != ref.Estimates()[q] {
				t.Fatalf("coalesced estimate differs: %g != %g", e, ref.Estimates()[q])
			}
		}
	}
	st := co.Stats()
	if st.Coalesced == 0 {
		t.Fatalf("no cross-run coalescing observed: %+v", st)
	}
	if st.Requests != st.Fetched+st.Coalesced {
		t.Fatalf("counters do not balance: %+v", st)
	}
}

// TestCloseDrains: Close cancels pending runs and returns with all workers
// stopped; Submit afterwards fails with ErrClosed.
func TestCloseDrains(t *testing.T) {
	plan, store, _ := fixture(t, 2, 30, 1024, 10)
	gate := &gatedStore{inner: store, gate: make(chan struct{})}
	s := New(Config{MaxActive: 1, MaxQueued: 4, Slice: 4, Workers: 1})
	a, err := s.Submit(context.Background(), Job{Run: core.NewRun(plan, penalty.SSE{}, gate)})
	if err != nil {
		t.Fatal(err)
	}
	gate.waitBlocked(t)
	b, err := s.Submit(context.Background(), Job{Run: core.NewRun(plan, penalty.SSE{}, gate)})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		s.Close()
		close(done)
	}()
	for !s.Closed() { // hold the gate until Close has cancelled everything
		time.Sleep(time.Millisecond)
	}
	gate.release()
	<-done
	if _, err := a.Final(); err == nil {
		// The active run may legitimately finish its in-flight slice before
		// observing cancellation only if it completed; either way the ticket
		// must have resolved.
		select {
		case <-a.Done():
		default:
			t.Fatal("active ticket unresolved after Close")
		}
	}
	if _, err := b.Final(); err != context.Canceled {
		t.Fatalf("queued run after Close: %v", err)
	}
	if _, err := s.Submit(context.Background(), Job{Run: core.NewRun(plan, penalty.SSE{}, store)}); err != ErrClosed {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

// gatedStore blocks every retrieval until release; waitBlocked detects a
// caller stuck inside a fetch.
type gatedStore struct {
	inner   storage.Store
	gate    chan struct{}
	mu      sync.Mutex
	waiting int
}

func (g *gatedStore) enter() {
	g.mu.Lock()
	g.waiting++
	g.mu.Unlock()
	<-g.gate
	g.mu.Lock()
	g.waiting--
	g.mu.Unlock()
}

func (g *gatedStore) BatchGetCtx(ctx context.Context, keys []int, dst []float64) error {
	g.enter()
	return g.inner.BatchGetCtx(ctx, keys, dst)
}

func (g *gatedStore) NonzeroCount() int { return g.inner.NonzeroCount() }

func (g *gatedStore) waitBlocked(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		g.mu.Lock()
		w := g.waiting
		g.mu.Unlock()
		if w > 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no retrieval blocked on the gate")
}

func (g *gatedStore) release() { close(g.gate) }

// sleepStore adds fixed latency per fetch call — simulated I/O.
type sleepStore struct {
	inner storage.Store
	delay time.Duration
}

func (s *sleepStore) BatchGetCtx(ctx context.Context, keys []int, dst []float64) error {
	time.Sleep(s.delay)
	return s.inner.BatchGetCtx(ctx, keys, dst)
}

func (s *sleepStore) NonzeroCount() int { return s.inner.NonzeroCount() }
