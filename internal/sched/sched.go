// Package sched owns concurrent execution of progressive query runs. The
// paper's Batch-Biggest-B makes every retrieval a natural preemption point —
// after any prefix of the master list the estimates are usable and carry
// error bounds — and this package exploits exactly that: admitted runs
// advance in budget slices (Run.StepBatch) under deficit round-robin with
// priority weights, so a huge exact batch shares the store fairly with small
// progressive ones instead of monopolizing it.
//
// Three responsibilities:
//
//   - Admission control: a bounded run table plus a bounded FIFO waiting
//     queue. Beyond both, Submit fails fast with ErrOverloaded and a
//     Retry-After hint — backpressure instead of collapse.
//   - Budget-sliced fair scheduling: each slice grants a run
//     Slice·priority-weight retrievals; per-run contexts cancel queued or
//     running work (client disconnects, deadlines).
//   - Progress delivery: after every slice the run's snapshot (estimates +
//     per-query error bounds) is published on the ticket's channel with
//     latest-wins semantics, feeding the server's SSE stream.
//
// Determinism: a run's slices execute strictly sequentially (a run is
// dispatched to at most one worker at a time), and Run.StepBatch is
// bit-identical to the same number of Run.Step calls, so a scheduled run's
// estimates at any retrieval count are value-identical to an unscheduled
// run's — whatever the slice size, worker count, or competing load.
//
// The core engine works in this package's favor twice over: runs sharing a
// (plan, penalty) pair share one cached retrieval schedule, so admitting a
// run costs O(batch size) rather than a heap build over the master list,
// and each StepBatch slice prefetches its whole quantum of keys in a single
// batched store call (which is also what gives the coalescing store a full
// window of overlappable fetches).
package sched

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Priority weights a run's slice quantum. Higher priority means more
// retrievals per round-robin turn, not absolute precedence: low-priority
// runs still advance every round (no starvation).
type Priority int

const (
	// PriorityLow gets a 1× quantum.
	PriorityLow Priority = iota - 1
	// PriorityNormal gets a 2× quantum (the default).
	PriorityNormal
	// PriorityHigh gets a 4× quantum.
	PriorityHigh
)

// weight returns the quantum multiplier.
func (p Priority) weight() int {
	switch {
	case p <= PriorityLow:
		return 1
	case p >= PriorityHigh:
		return 4
	default:
		return 2
	}
}

// Config sizes the scheduler. Zero values select the defaults.
type Config struct {
	// MaxActive bounds the run table: how many admitted runs advance
	// concurrently under round-robin. Default 64.
	MaxActive int
	// MaxQueued bounds the waiting queue behind the run table. Default 256.
	MaxQueued int
	// Slice is the base quantum in retrievals granted per scheduling turn
	// (scaled by the run's priority weight). Default 512.
	Slice int
	// Workers is the number of goroutines executing slices. Slices of
	// distinct runs execute concurrently (which is what lets the coalescing
	// store share overlapping fetches); a single run is never on two workers
	// at once. ≤0 selects GOMAXPROCS. Set 1 when the store is not
	// concurrent-safe.
	Workers int
	// RetryAfter is the backoff hint attached to overload rejections.
	// Default 1s.
	RetryAfter time.Duration
	// MaxPreparedPerTenant bounds how many prepared plans one tenant may
	// hold concurrently (see Quotas). Default 32; negative disables
	// enforcement.
	MaxPreparedPerTenant int
}

func (c Config) withDefaults() Config {
	if c.MaxActive <= 0 {
		c.MaxActive = 64
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 256
	}
	if c.Slice <= 0 {
		c.Slice = 512
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxPreparedPerTenant == 0 {
		c.MaxPreparedPerTenant = 32
	}
	return c
}

// ErrOverloaded is returned by Submit when both the run table and the
// waiting queue are full. Callers should back off (HTTP 429 + Retry-After).
var ErrOverloaded = errors.New("sched: run table and waiting queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("sched: scheduler closed")

// Job is one progressive run to execute.
type Job struct {
	// Run is a fresh progressive run; the scheduler owns it until the
	// ticket completes.
	Run *core.Run
	// Budget limits retrievals; ≤0 (or ≥ the master list) runs to exact.
	Budget int
	// Priority weights the per-turn quantum.
	Priority Priority
	// Mass is the coefficient mass K = Σ|Δ̂[ξ]| used for per-query error
	// bounds in progress snapshots (0 suppresses bounds).
	Mass float64
}

// Progress is a snapshot of a run after a slice: usable estimates plus the
// paper's per-query worst-case bounds (nil once the run is exact).
type Progress struct {
	// Retrieved is the run's logical retrieval count so far (attempted
	// steps, including any skipped by failed retrievals).
	Retrieved int
	// Done reports whether the schedule is drained. The estimates are exact
	// only when Done && !Degraded.
	Done bool
	// Degraded reports that some retrievals failed permanently and their
	// entries were skipped: the estimates are partial results whose residual
	// error Bounds still covers.
	Degraded bool
	// Skipped is the number of entries skipped by failed retrievals.
	Skipped int
	// SkippedImportance is ι_p of the most important skipped entry — the
	// worst-case-bound cost of the missing coefficients (0 when none).
	SkippedImportance float64
	// Estimates holds one progressive estimate per query.
	Estimates []float64
	// Bounds holds the per-query worst-case error bounds (Hölder / Theorem 1
	// with mass K); nil once the run is exact (Done && !Degraded).
	Bounds []float64
	// Bound is the batch-wide Theorem 1 worst-case bound K^α·ι_p(ξ′) with
	// mass K (0 once the run is exact, or when the job carried no mass).
	Bound float64
}

// Stats is a snapshot of the scheduler counters for monitoring.
type Stats struct {
	Submitted int64 `json:"submitted"`
	Rejected  int64 `json:"rejected"`
	Completed int64 `json:"completed"`
	Cancelled int64 `json:"cancelled"`
	// Slices counts scheduling turns executed; Stepped the retrievals they
	// performed.
	Slices  int64 `json:"slices"`
	Stepped int64 `json:"stepped"`
	// Active and Queued are instantaneous occupancy.
	Active int `json:"active"`
	Queued int `json:"queued"`
}

// task is one admitted or queued job with its delivery plumbing.
type task struct {
	job    Job
	ctx    context.Context
	cancel context.CancelFunc

	// deficit is the run's unused quantum carried across turns (deficit
	// round-robin); busy marks a slice currently on a worker; finished marks
	// the terminal state as recorded (guards the single close of done).
	deficit  int
	busy     bool
	finished bool

	// profile/enqueued feed the EXPLAIN ANALYZE queue-delay figure: when the
	// submission context carries a QueryProfile, the delay between Submit and
	// the first dispatched slice is charged to it. Both stay zero otherwise.
	profile  *obs.QueryProfile
	enqueued time.Time
	started  bool

	progress chan Progress // latest-wins, consumed by streaming clients
	done     chan struct{}
	final    Progress
	err      error
}

// remaining returns how many retrievals the task may still perform, or -1
// for run-to-exact.
func (t *task) remaining() int {
	if t.job.Budget <= 0 {
		return -1
	}
	r := t.job.Budget - t.job.Run.Retrieved()
	if r < 0 {
		return 0
	}
	return r
}

// publish delivers p with latest-wins semantics: a slow or absent consumer
// never blocks the scheduler, and always observes the newest snapshot.
func (t *task) publish(p Progress) {
	for {
		select {
		case t.progress <- p:
			return
		default:
			select {
			case <-t.progress:
			default:
			}
		}
	}
}

// snapshot captures the run's current state. Called only by the worker that
// owns the task's current slice.
func (t *task) snapshot() Progress {
	run := t.job.Run
	p := Progress{
		Retrieved:         run.Retrieved(),
		Done:              run.Done(),
		Degraded:          run.Degraded(),
		Skipped:           run.SkippedCount(),
		SkippedImportance: run.SkippedImportance(),
		Estimates:         run.Snapshot(),
	}
	if (!p.Done || p.Degraded) && t.job.Mass > 0 {
		p.Bounds = run.QueryErrorBounds(t.job.Mass)
		p.Bound = run.WorstCaseBound(t.job.Mass)
	}
	return p
}

// Ticket is the caller's handle on a submitted job.
type Ticket struct {
	t *task
	s *Scheduler
}

// Progress returns the latest-wins snapshot channel. Snapshots arrive after
// each slice until the run finishes; the final state is in Final.
func (tk *Ticket) Progress() <-chan Progress { return tk.t.progress }

// Done is closed when the run finishes (budget reached, exact, or
// cancelled).
func (tk *Ticket) Done() <-chan struct{} { return tk.t.done }

// Final blocks until the run finishes and returns its last snapshot. The
// error is nil on normal completion, or the context's error when the run
// was cancelled or timed out — in which case the snapshot still holds the
// progressive state reached before cancellation.
func (tk *Ticket) Final() (Progress, error) {
	<-tk.t.done
	return tk.t.final, tk.t.err
}

// Cancel stops the run as soon as its current slice (if any) completes.
func (tk *Ticket) Cancel() {
	tk.t.cancel()
	tk.s.mu.Lock()
	tk.s.cond.Broadcast()
	tk.s.mu.Unlock()
}

// Scheduler multiplexes progressive runs over a bounded worker pool.
type Scheduler struct {
	cfg Config

	mu     sync.Mutex
	cond   *sync.Cond
	ring   []*task // run table, round-robin order
	cursor int
	queue  []*task // FIFO admission queue
	closed bool

	submitted, rejected, completed, cancelled int64
	slices, stepped                           int64

	// quotas is the prepared-plan admission ledger (quota.go); the HTTP
	// layer charges it on /prepare and releases on eviction.
	quotas *Quotas

	wg sync.WaitGroup
}

// New starts a scheduler with cfg's workers running.
func New(cfg Config) *Scheduler {
	s := &Scheduler{cfg: cfg.withDefaults()}
	s.quotas = NewQuotas(s.cfg.MaxPreparedPerTenant)
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Config returns the effective (defaulted) configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// PlanQuotas returns the scheduler's prepared-plan admission ledger.
func (s *Scheduler) PlanQuotas() *Quotas { return s.quotas }

// Submit admits a job into the run table, or parks it in the waiting queue
// when the table is full. When both are full it returns ErrOverloaded
// without blocking. ctx cancellation (or deadline) stops the run wherever
// it is; the ticket then reports the context error alongside the progress
// reached.
func (s *Scheduler) Submit(ctx context.Context, job Job) (*Ticket, error) {
	if job.Run == nil {
		return nil, errors.New("sched: nil run")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if len(s.ring) >= s.cfg.MaxActive && len(s.queue) >= s.cfg.MaxQueued {
		s.rejected++
		return nil, ErrOverloaded
	}
	tctx, cancel := context.WithCancel(ctx)
	t := &task{
		job:      job,
		ctx:      tctx,
		cancel:   cancel,
		progress: make(chan Progress, 1),
		done:     make(chan struct{}),
	}
	if p := obs.ProfileFrom(ctx); p != nil {
		t.profile = p
		t.enqueued = time.Now()
	}
	if len(s.ring) < s.cfg.MaxActive {
		s.ring = append(s.ring, t)
	} else {
		s.queue = append(s.queue, t)
	}
	s.submitted++
	s.cond.Broadcast()
	go s.watch(t)
	return &Ticket{t: t, s: s}, nil
}

// watch finishes a task whose context ends while no worker holds it — a
// queued task, or a parked one behind pinned workers. Without it a client
// disconnect or deadline would hold the slot until a worker happened to pick
// the task, which under a pinned pool is never.
func (s *Scheduler) watch(t *task) {
	select {
	case <-t.ctx.Done():
	case <-t.done:
		return
	}
	s.mu.Lock()
	// A worker mid-slice owns the run; it observes the cancellation at its
	// next pick, or finishes first — either way wait for the slice to end.
	for t.busy && !t.finished {
		s.cond.Wait()
	}
	if t.finished {
		s.mu.Unlock()
		return
	}
	p := t.snapshot() // no worker owns the run here, safe under the lock
	s.finishLocked(t, p, t.ctx.Err())
	s.cond.Broadcast()
	s.mu.Unlock()
	t.cancel()
	close(t.done)
}

// Stats returns a snapshot of the counters, taken under the scheduler's
// lock: Submitted = Completed + Cancelled + Active + Queued in every one.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Submitted: s.submitted,
		Rejected:  s.rejected,
		Completed: s.completed,
		Cancelled: s.cancelled,
		Slices:    s.slices,
		Stepped:   s.stepped,
		Active:    len(s.ring),
		Queued:    len(s.queue),
	}
}

// RetryAfter returns the configured backoff hint for overload rejections.
func (s *Scheduler) RetryAfter() time.Duration { return s.cfg.RetryAfter }

// / Closed reports whether Close has begun: admission is rejected and every
// pending run has been cancelled.
func (s *Scheduler) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Close stops admission, cancels every pending run and waits for the
// workers to drain. Tickets of cancelled runs complete with their context
// error. Close is idempotent.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	for _, t := range s.ring {
		t.cancel()
	}
	for _, t := range s.queue {
		t.cancel()
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

// worker executes slices until the scheduler is closed and drained.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		t, n := s.next()
		if t == nil {
			return
		}
		// Failed retrievals degrade the run (entries skipped, bounds widened)
		// instead of panicking a worker, and a non-nil err here is always
		// the task context ending.
		var start time.Time
		hist := sliceSeconds.Load()
		if hist != nil {
			start = time.Now()
		}
		stepped, err := t.job.Run.StepBatchCtx(t.ctx, n)
		if hist != nil {
			hist.Observe(time.Since(start).Seconds())
		}
		// The run is owned by this worker until busy clears: snapshot and
		// the finish decision need no lock.
		p := t.snapshot()
		finished := err != nil || t.job.Run.Done() || t.remaining() == 0
		if !finished {
			// Publish before releasing the task so snapshots are observed in
			// retrieval order.
			t.publish(p)
		}
		s.afterSlice(t, stepped, p, err, finished)
	}
}

// next blocks until a run is dispatchable and claims its slice, or returns
// nil when the scheduler is closed and fully drained.
func (s *Scheduler) next() (*task, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if t, n := s.pickLocked(); t != nil {
			return t, n
		}
		if s.closed && len(s.ring) == 0 && len(s.queue) == 0 {
			return nil, 0
		}
		s.cond.Wait()
	}
}

// pickLocked claims the next non-busy run in round-robin order and grants
// its deficit quantum.
func (s *Scheduler) pickLocked() (*task, int) {
	for i := 0; i < len(s.ring); i++ {
		j := (s.cursor + i) % len(s.ring)
		t := s.ring[j]
		if t.busy {
			continue
		}
		s.cursor = (j + 1) % len(s.ring)
		t.busy = true
		if !t.started {
			t.started = true
			if t.profile != nil {
				t.profile.AddQueueDelay(time.Since(t.enqueued))
			}
		}
		t.deficit += s.cfg.Slice * t.job.Priority.weight()
		n := t.deficit
		if rem := t.remaining(); rem >= 0 && n > rem {
			n = rem
		}
		return t, n
	}
	return nil, 0
}

// afterSlice releases the task, finishing it (and promoting queued work)
// when its run completed, exhausted its budget, or was cancelled.
func (s *Scheduler) afterSlice(t *task, stepped int, p Progress, err error, finished bool) {
	s.mu.Lock()
	t.busy = false
	t.deficit -= stepped
	if t.deficit < 0 || finished {
		t.deficit = 0
	}
	s.slices++
	s.stepped += int64(stepped)
	first := false
	if finished {
		first = s.finishLocked(t, p, err)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	if first {
		t.cancel() // release the context regardless of outcome
		close(t.done)
	}
}

// finishLocked records t's terminal state, removes it wherever it sits and
// promotes queued work into the freed slot. Returns false when another path
// (worker vs. context watcher) already finished it; only the first finisher
// may close t.done.
func (s *Scheduler) finishLocked(t *task, p Progress, err error) bool {
	if t.finished {
		return false
	}
	t.finished = true
	t.final = p
	t.err = err
	s.removeLocked(t)
	if err != nil {
		s.cancelled++
	} else {
		s.completed++
	}
	s.promoteLocked()
	return true
}

// removeLocked drops t from the run table (keeping round-robin order) or
// from the waiting queue, wherever it sits.
func (s *Scheduler) removeLocked(t *task) {
	for i, x := range s.ring {
		if x == t {
			s.ring = append(s.ring[:i], s.ring[i+1:]...)
			if s.cursor > i {
				s.cursor--
			}
			if len(s.ring) > 0 {
				s.cursor %= len(s.ring)
			} else {
				s.cursor = 0
			}
			return
		}
	}
	for i, x := range s.queue {
		if x == t {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return
		}
	}
}

// promoteLocked moves queued tasks into freed run-table slots. Tasks whose
// context already expired are admitted too; the next slice observes the
// cancellation and finishes them with the context error.
func (s *Scheduler) promoteLocked() {
	for len(s.ring) < s.cfg.MaxActive && len(s.queue) > 0 {
		t := s.queue[0]
		s.queue = s.queue[1:]
		s.ring = append(s.ring, t)
	}
}
