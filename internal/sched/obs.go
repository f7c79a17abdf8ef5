package sched

import (
	"sync/atomic"

	"repro/internal/obs"
)

// Observability for the scheduler. Its counters and occupancy are its own
// (Stats; whoever exposes them reads that). The one number nothing else
// keeps is the latency of a slice, pushed into the histogram Observe
// installs; with none installed a slice pays one atomic load plus a branch.

var sliceSeconds atomic.Pointer[obs.Histogram]

// Observe points the scheduler's instrumentation at reg. Pass nil to
// uninstall (the default state).
func Observe(reg *obs.Registry) {
	sliceSeconds.Store(reg.Histogram("wvq_sched_slice_seconds",
		"Latency of individual scheduling slices (one StepBatch quantum).", nil))
}
