package obs

import (
	"sync"
	"testing"
	"time"
)

// TestProfileRowsMergeInPairs records far more steps than the row list
// holds: the rows stay within MaxProfileRows, every full row is the same
// width, and the merged rows still cover every step — batches sum to the
// drain, durations to StepNanos — with the k-th row ending at the (k+1)-th
// bound point.
func TestProfileRowsMergeInPairs(t *testing.T) {
	p := NewQueryProfile("req-1", "SUM(x)")
	p.Begin(0, 2, 0)
	const steps = 5000
	for i := 1; i <= steps; i++ {
		skipped := 0
		if i%7 == 0 {
			skipped = 1
		}
		p.RecordStep(i, skipped, time.Duration(i), 1/float64(i+1), i == steps)
	}
	snap := p.Snapshot()
	if n := len(snap.Steps); n > MaxProfileRows || n < MaxProfileRows/2 {
		t.Fatalf("kept %d rows, want within [%d, %d]", n, MaxProfileRows/2, MaxProfileRows)
	}
	if len(snap.Bound) != len(snap.Steps)+1 {
		t.Fatalf("%d bound points for %d rows", len(snap.Bound), len(snap.Steps))
	}
	var batches, skips int
	var dur int64
	for k, st := range snap.Steps {
		if k < len(snap.Steps)-1 && st.Batch != snap.Steps[0].Batch {
			t.Fatalf("row %d is %d steps wide, row 0 is %d", k, st.Batch, snap.Steps[0].Batch)
		}
		batches += st.Batch
		skips += st.Skipped
		dur += st.DurNanos
		pt := snap.Bound[k+1]
		if pt.Retrieved != st.Retrieved || pt.Bound != st.Bound || pt.Skipped != skips {
			t.Fatalf("row %d %+v does not end at bound point %+v (skipped so far %d)", k, st, pt, skips)
		}
		if pt.Retrieved != batches {
			t.Fatalf("row %d: retrieved %d after %d batched entries", k, pt.Retrieved, batches)
		}
	}
	if batches != steps || skips != steps/7 || dur != snap.StepNanos || dur != steps*(steps+1)/2 {
		t.Fatalf("rows sum to %d entries, %d skips, %dns; StepNanos %d", batches, skips, dur, snap.StepNanos)
	}
	if first := snap.Bound[0]; first.Retrieved != 0 || first.Bound != 2 {
		t.Fatalf("starting point = %+v", first)
	}
	last := snap.Steps[len(snap.Steps)-1]
	if last.Retrieved != steps || last.Bound != 1/float64(steps+1) {
		t.Fatalf("final row = %+v", last)
	}
}

func TestRunTraceFinishFirstWins(t *testing.T) {
	o := NewObserver()
	p := o.StartRun("req-2", "")
	p.Begin(0, 1, 0)
	p.RecordStep(1, 0, time.Millisecond, 0.9, false)
	p.Finish()
	wall := p.Wall()
	time.Sleep(time.Millisecond)
	p.Finish() // late duplicate (e.g. a handler's deferred close)
	if p.Wall() != wall || wall <= 0 {
		t.Fatalf("second Finish moved the wall time %v -> %v", wall, p.Wall())
	}
	p.RecordStep(2, 0, time.Millisecond, 0.1, true)
	snap := p.Snapshot()
	if len(snap.Steps) != 1 || snap.StepNanos != time.Millisecond.Nanoseconds() {
		t.Fatalf("RecordStep after Finish must be ignored: %+v", snap.Steps)
	}
	runs := o.Profiles()
	if len(runs) != 1 || !runs[0].Finished || runs[0].Done {
		t.Fatalf("a run closed short of its schedule must read finished, not done: %+v", runs)
	}
}

// TestSetPlanMovesTheClockBack: the plan is built and the run set up before
// the recorder starts, so SetPlan moves its clock back by both: the wall
// covers every component the profile reports, and the origin row, recorded
// during the setup, now sits after the build.
func TestSetPlanMovesTheClockBack(t *testing.T) {
	o := NewObserver()
	p := o.StartRun("req-3", "")
	p.Begin(0, 1, 0)
	const build, setup = 5 * time.Millisecond, time.Millisecond
	p.SetPlan("built", build, setup, 1, 1)
	p.RecordStep(1, 0, 0, 0.5, true)
	p.Finish()
	snap := p.Snapshot()
	if components := snap.Plan.BuildNanos + snap.Plan.SetupNanos + snap.StepNanos; snap.WallNanos < components {
		t.Fatalf("wall %dns is shorter than its components %dns", snap.WallNanos, components)
	}
	if points := o.Profiles()[0].Bound; len(points) != 2 || points[0].Elapsed < build || points[1].Elapsed < points[0].Elapsed {
		t.Fatalf("trajectory %+v: the origin must sit after the build", points)
	}
}

func TestRunsIncludeLiveRecorders(t *testing.T) {
	o := NewObserver()
	for i := 0; i < DefaultProfileCapacity+2; i++ {
		o.StartRun("old", "").Finish()
	}
	live := o.StartRun("live", "")
	live.Begin(0, 1, 0)
	live.RecordStep(5, 0, time.Microsecond, 0.5, false)
	runs := o.Profiles()
	if _, _, total := o.RingStats(); total != DefaultProfileCapacity+3 || len(runs) != DefaultProfileCapacity {
		t.Fatalf("listed %d of %d runs, want the last %d", len(runs), total, DefaultProfileCapacity)
	}
	r := runs[len(runs)-1]
	if r.ID != "live" || r.Finished || r.Done {
		t.Fatalf("live run missing or finished: %+v", r)
	}
	if len(r.Bound) != 2 || r.Bound[1].Bound != 0.5 || r.Bound[1].Retrieved != 5 {
		t.Fatalf("live points: %+v", r.Bound)
	}
}

// TestRecorderLiveReads renders a run while it records, as /debug/profiles
// and a coordinator's shard goroutines do (run it under -race).
func TestRecorderLiveReads(t *testing.T) {
	o := NewObserver()
	p := o.StartRun("live", "")
	p.Begin(0, 1, 0)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 1; i <= 3*MaxProfileRows; i++ {
			p.RecordStep(i, 0, time.Nanosecond, 1/float64(i), false)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			p.AddShard(i%2, "addr", 1, time.Nanosecond, 0, 0)
			p.AddRemote("addr", 8, time.Nanosecond)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			runs := o.Profiles()
			snap := p.Snapshot()
			if len(runs) != 1 || len(snap.Bound) != len(snap.Steps)+1 {
				t.Errorf("live read: %d runs, %d bound points for %d rows", len(runs), len(snap.Bound), len(snap.Steps))
				return
			}
		}
	}()
	wg.Wait()
	if snap := p.Snapshot(); snap.StepNanos != 3*MaxProfileRows || len(snap.Shards) != 2 {
		t.Fatalf("after the writers: step_ns %d, %d shard rows", snap.StepNanos, len(snap.Shards))
	}
}
