package core

// Profile bit-neutrality: attaching a QueryProfile to a run (the ?explain=1
// configuration) must not perturb the numerics. Two runs over the same plan
// and store, stepped in lockstep, must produce bit-identical estimates at
// every step whether or not one of them is profiled — observation reads the
// evaluation, it never participates in it.

import (
	"context"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/obs"
	"repro/internal/penalty"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/wavelet"
)

func TestProfileBitNeutral(t *testing.T) {
	schema := dataset.MustSchema([]string{"x", "y"}, []int{128, 64})
	dist := dataset.Uniform(schema, 8000, 5)
	ranges, err := query.RandomPartition(schema, 32, 11)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := query.SumBatch(schema, ranges, "y")
	if err != nil {
		t.Fatal(err)
	}
	hat, err := dist.Transform(wavelet.Db4)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := waveletPlanOn(batch, wavelet.Db4, 1)
	if err != nil {
		t.Fatal(err)
	}
	store := storage.NewHashStoreFromDense(hat, 0)
	pen := penalty.SSE{}
	plan.ScheduleFor(pen)

	plain := NewRun(plan, pen, store)
	profiled := NewRun(plan, pen, store)
	prof := obs.NewQueryProfile("req-bitneutral", "test")
	profiled.AttachProfile(prof)
	ctx := obs.WithProfile(context.Background(), prof)

	const batchSize = 64
	steps := 0
	for {
		n1, err := plain.StepBatchCtx(context.Background(), batchSize)
		if err != nil {
			t.Fatal(err)
		}
		n2, err := profiled.StepBatchCtx(ctx, batchSize)
		if err != nil {
			t.Fatal(err)
		}
		if n1 != n2 {
			t.Fatalf("step %d: plain retrieved %d, profiled %d", steps, n1, n2)
		}
		e1, e2 := plain.Estimates(), profiled.Estimates()
		for q := range e1 {
			if math.Float64bits(e1[q]) != math.Float64bits(e2[q]) {
				t.Fatalf("step %d query %d: plain %x, profiled %x — profiling perturbed the estimate",
					steps, q, math.Float64bits(e1[q]), math.Float64bits(e2[q]))
			}
		}
		if b1, b2 := plain.RemainingImportance(), profiled.RemainingImportance(); math.Float64bits(b1) != math.Float64bits(b2) {
			t.Fatalf("step %d: remaining importance diverged (%v vs %v)", steps, b1, b2)
		}
		steps++
		if n1 == 0 {
			break
		}
	}

	prof.Finish()
	snap := prof.Snapshot()
	// The profile itself must reflect the drain it watched: Retrieved is
	// cumulative, so the final row must land on the whole master list.
	if len(snap.Steps) == 0 {
		t.Fatal("profile recorded no steps")
	}
	if got := snap.Steps[len(snap.Steps)-1].Retrieved; got != plan.DistinctCoefficients() {
		t.Fatalf("final profile row retrieved %d coefficients, plan has %d", got, plan.DistinctCoefficients())
	}
	if snap.WallNanos <= 0 {
		t.Fatalf("profile wall time %dns, want > 0 after Finish", snap.WallNanos)
	}
}

// TestProfileNilSafety exercises every QueryProfile method on a nil receiver
// (the off path): all must be no-ops, none may panic.
func TestProfileNilSafety(t *testing.T) {
	var p *obs.QueryProfile
	p.SetPlan("built", 0, 0, 1, 1)
	p.AddQueueDelay(0)
	p.RecordStep(1, 1, 0, 0, 0)
	p.AddCoalesce(1, 1, 0)
	p.AddLayout(1, 0, 0, 0)
	p.AddMVCC(1, 0)
	p.AddShard(0, "addr", 1, 0, 0, 0)
	p.AddRemote("addr", 1, 0)
	p.MarkSlow()
	p.Finish()
	if p.Wall() != 0 {
		t.Fatal("nil profile reports nonzero wall")
	}
	snap := p.Snapshot()
	if snap.ID != "" || len(snap.Steps) != 0 {
		t.Fatalf("nil profile snapshot not empty: %+v", snap)
	}
	if obs.ProfileFrom(context.Background()) != nil {
		t.Fatal("empty context carries a profile")
	}
}
