package sched

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/penalty"
	"repro/internal/storage"
)

// The mixed workload: benchClients concurrent batches over one view, half
// run to exact and half stop at a quarter budget — the shape the scheduler
// exists for. Their plans are identical, the worst case for fairness and the
// best case for cross-run coalescing (production batches over one view
// overlap heavily on the coarse wavelet levels).
const benchClients = 16

// ioDelay is the simulated per-coefficient fetch latency of the io variants:
// the paper's cost model counts retrievals because fetches dominate when the
// synopsis pages from disk or a remote store, and only under real fetch
// latency do concurrent runs overlap enough to share I/O (a pure in-memory
// map never yields mid-fetch on one core).
const ioDelay = 2 * time.Microsecond

// slowStore charges ioDelay per coefficient fetched.
type slowStore struct{ *storage.HashStore }

func (s *slowStore) BatchGetCtx(ctx context.Context, keys []int, dst []float64) error {
	time.Sleep(time.Duration(len(keys)) * ioDelay)
	return s.HashStore.BatchGetCtx(ctx, keys, dst)
}

// runSequential is the PR-1 per-request path: each run executed to its
// budget in turn, stepping in 1024-retrieval batches against the shared
// store (what internal/server did before the scheduler).
func runSequential(b *testing.B, plan *core.Plan, store storage.Store, budgets []int) {
	for _, budget := range budgets {
		run := core.NewRun(plan, penalty.SSE{}, store)
		remaining := budget
		if remaining <= 0 {
			remaining = plan.DistinctCoefficients()
		}
		for !run.Done() && remaining > 0 {
			n := remaining
			if n > 1024 {
				n = 1024
			}
			stepped, err := run.StepBatchCtx(context.Background(), n)
			if err != nil {
				b.Fatal(err)
			}
			if stepped == 0 {
				break
			}
			remaining -= stepped
		}
	}
}

// runScheduled pushes the whole workload through the scheduler at once.
func runScheduled(b *testing.B, s *Scheduler, plan *core.Plan, store storage.Store, budgets []int, mass float64) {
	tickets := make([]*Ticket, len(budgets))
	for c, budget := range budgets {
		tk, err := s.Submit(context.Background(), Job{
			Run:    core.NewRun(plan, penalty.SSE{}, store),
			Budget: budget,
			Mass:   mass,
		})
		if err != nil {
			b.Fatal(err)
		}
		tickets[c] = tk
	}
	for _, tk := range tickets {
		if _, err := tk.Final(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBudgets returns each client's retrieval budget (0 = exact).
func benchBudgets(distinct int) []int {
	budgets := make([]int, benchClients)
	for c := range budgets {
		if c%2 == 1 {
			budgets[c] = distinct / 4
		}
	}
	return budgets
}

// BenchmarkScheduler compares the mixed workload on the per-request path
// (sequential) against the scheduler with cross-run coalescing (mixed), over
// an in-memory map store (mem) and one with simulated fetch latency (io).
// The io/mixed variant reports physical and coalesced fetches per op.
func BenchmarkScheduler(b *testing.B) {
	plan, shards, mass := fixture(b, 12, 40, 2048, 3)
	budgets := benchBudgets(plan.DistinctCoefficients())
	slow := &slowStore{shards}

	b.Run("mem/sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runSequential(b, plan, shards, budgets)
		}
	})
	b.Run("mem/mixed", func(b *testing.B) {
		cs := storage.NewCoalescingStore(shards)
		s := New(Config{Workers: 4, MaxActive: benchClients, Slice: 512})
		defer s.Close()
		for i := 0; i < b.N; i++ {
			runScheduled(b, s, plan, cs, budgets, mass)
		}
	})
	b.Run("io/sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runSequential(b, plan, slow, budgets)
		}
	})
	b.Run("io/mixed", func(b *testing.B) {
		cs := storage.NewCoalescingStore(slow)
		s := New(Config{Workers: 4, MaxActive: benchClients, Slice: 512})
		defer s.Close()
		for i := 0; i < b.N; i++ {
			runScheduled(b, s, plan, cs, budgets, mass)
		}
		b.StopTimer()
		st := cs.Stats()
		if st.Coalesced == 0 {
			b.Fatal("no fetches coalesced across runs")
		}
		b.ReportMetric(float64(st.Coalesced)/float64(b.N), "coalesced/op")
		b.ReportMetric(float64(st.Fetched)/float64(b.N), "fetched/op")
	})
}
