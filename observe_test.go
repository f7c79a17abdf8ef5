package repro_test

import (
	"context"
	"testing"

	"repro"
)

// TestProfileRunCoversDrain drains a run armed by ProfileRun one entry per
// StepBatchCtx — more steps than a profile keeps rows — and checks the
// snapshot's step rows still cover the whole drain and sum to step_ns, and
// that the returned context carried the profile to the coalescing layer.
func TestProfileRunCoversDrain(t *testing.T) {
	schema, err := repro.NewSchema([]string{"x", "m"}, []int{256, 64})
	if err != nil {
		t.Fatal(err)
	}
	dist := repro.NewDistribution(schema)
	for x := 0; x < 256; x++ {
		for k := 0; k <= x%5; k++ {
			dist.AddTuple([]int{x, (7*x + 3*k) % 64})
		}
	}
	db, err := repro.NewDatabase(dist, repro.Db4)
	if err != nil {
		t.Fatal(err)
	}
	db.SetStack(repro.Stack{Coalesce: true})
	batch, err := repro.ParseBatch(schema, "SUM(m) GROUP BY x(32)")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.Plan(batch)
	if err != nil {
		t.Fatal(err)
	}
	run := db.NewRun(plan, repro.SSE())
	ctx, prof := repro.ProfileRun(context.Background(), run, "req-facade", "SUM(m) GROUP BY x(32)")
	steps := 0
	for {
		n, err := run.StepBatchCtx(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		steps++
	}
	prof.Finish()
	snap := prof.Snapshot()

	distinct := plan.DistinctCoefficients()
	if steps != distinct {
		t.Fatalf("drained %d steps of %d", steps, distinct)
	}
	if snap.ID != "req-facade" || snap.WallNanos <= 0 {
		t.Fatalf("profile identity/wall: %q %dns", snap.ID, snap.WallNanos)
	}
	if len(snap.Steps) == 0 || len(snap.Steps) >= steps {
		t.Fatalf("%d rows for %d steps: the drain must outrun the row cap", len(snap.Steps), steps)
	}
	var entries int
	var sum int64
	for _, st := range snap.Steps {
		entries += st.Batch
		sum += st.DurNanos
	}
	if entries != distinct || snap.Steps[len(snap.Steps)-1].Retrieved != distinct {
		t.Fatalf("rows cover %d entries ending at %d, drain is %d", entries, snap.Steps[len(snap.Steps)-1].Retrieved, distinct)
	}
	if sum != snap.StepNanos || sum <= 0 {
		t.Fatalf("rows sum to %dns, step_ns %dns", sum, snap.StepNanos)
	}
	if len(snap.Bound) != len(snap.Steps)+1 {
		t.Fatalf("%d bound points for %d rows", len(snap.Bound), len(snap.Steps))
	}
	if snap.Tiers.Requested != int64(distinct) {
		t.Fatalf("coalescing layer saw %d keys under the profile, drain is %d", snap.Tiers.Requested, distinct)
	}
}
