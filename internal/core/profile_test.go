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

// profileFixture is a SUM batch over `ranges` random ranges (seed 11) of an
// x×y grid of 8000 uniform tuples (seed 5), Db4, scheduled under SSE.
func profileFixture(t *testing.T, x, y, ranges int) (*Plan, storage.Store) {
	t.Helper()
	schema := dataset.MustSchema([]string{"x", "y"}, []int{x, y})
	dist := dataset.Uniform(schema, 8000, 5)
	rs, err := query.RandomPartition(schema, ranges, 11)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := query.SumBatch(schema, rs, "y")
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
	plan.ScheduleFor(penalty.SSE{})
	return plan, storage.NewSparseStoreFromDense(hat)
}

func TestProfileBitNeutral(t *testing.T) {
	plan, store := profileFixture(t, 128, 64, 32)
	pen := penalty.SSE{}

	plain := NewRun(plan, pen, store)
	profiled := NewRun(plan, pen, store)
	prof := obs.NewQueryProfile("req-bitneutral", "test")
	profiled.AttachProfile(prof, 1)
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
	p.Begin(0, 1, 0)
	p.RecordStep(1, 0, 0, 0, true)
	p.AddCoalesce(1, 1, 0)
	p.AddLayout(1, 0)
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

// TestProfileRowsAlignWithBound drains runs one entry per StepBatchCtx, wired
// as the server wires an observed, profiled request, and checks the step
// rows and the bound trajectory are one list: the k-th row ends at the
// (k+1)-th bound point, the rows sum to step_ns, and the row count stays
// within the cap — on a drain of a few thousand steps and on one longer
// than 4096.
func TestProfileRowsAlignWithBound(t *testing.T) {
	for _, c := range []struct{ x, y, ranges, steps int }{
		{128, 64, 32, 2273},
		{512, 256, 64, 11969},
	} {
		plan, store := profileFixture(t, c.x, c.y, c.ranges)
		if d := plan.DistinctCoefficients(); d != c.steps {
			t.Fatalf("%dx%d: fixture drains in %d steps, want %d", c.x, c.y, d, c.steps)
		}
		o := obs.NewObserver()
		prof := o.StartRun("req-align", "test")
		run := NewRun(plan, penalty.SSE{}, store)
		run.AttachProfile(prof, coefficientMass(t, store))
		ctx := obs.WithProfile(context.Background(), prof)
		for {
			n, err := run.StepBatchCtx(ctx, 1)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
		}
		prof.Finish()
		snap := prof.Snapshot()

		if len(snap.Steps) > obs.MaxProfileRows {
			t.Errorf("%dx%d: %d rows, cap %d", c.x, c.y, len(snap.Steps), obs.MaxProfileRows)
		}
		if len(snap.Bound) != len(snap.Steps)+1 {
			t.Fatalf("%dx%d: %d bound points for %d step rows", c.x, c.y, len(snap.Bound), len(snap.Steps))
		}
		var sum int64
		var batches int
		for k, st := range snap.Steps {
			if got := snap.Bound[k+1].Retrieved; got != st.Retrieved {
				t.Fatalf("%dx%d: bound[%d].retrieved = %d, steps[%d].retrieved = %d", c.x, c.y, k+1, got, k, st.Retrieved)
			}
			if got := snap.Bound[k+1].Bound; got != st.Bound {
				t.Fatalf("%dx%d: bound[%d].bound = %g, steps[%d].bound = %g", c.x, c.y, k+1, got, k, st.Bound)
			}
			sum += st.DurNanos
			batches += st.Batch
		}
		if sum != snap.StepNanos {
			t.Errorf("%dx%d: step rows sum to %dns of step_ns %dns", c.x, c.y, sum, snap.StepNanos)
		}
		if d := plan.DistinctCoefficients(); batches != d || snap.Steps[len(snap.Steps)-1].Retrieved != d {
			t.Errorf("%dx%d: rows cover %d entries, drain is %d", c.x, c.y, batches, d)
		}
		if snap.Bound[0].Retrieved != 0 || snap.Bound[len(snap.Bound)-1].Bound != 0 {
			t.Errorf("%dx%d: trajectory must run from 0 retrieved to bound 0: %+v … %+v",
				c.x, c.y, snap.Bound[0], snap.Bound[len(snap.Bound)-1])
		}
		if runs, _ := o.Runs(); len(runs) != 1 || len(runs[0].Points) != len(snap.Bound) || !runs[0].Done {
			t.Errorf("%dx%d: /debug/traces run must list the same trajectory", c.x, c.y)
		}
	}
}
