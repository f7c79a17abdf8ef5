package mvcc

import (
	"sync/atomic"

	"repro/internal/obs"
)

// Observability for the MVCC tier. The store's counters and head gauges are
// its own (Stats; whoever exposes them reads that). The one number nothing
// else keeps is how long a compaction took, pushed into the histogram
// Observe installs; with none installed a compaction pays one atomic load
// plus a branch.

var compactSeconds atomic.Pointer[obs.Histogram]

// Observe points the package's instrumentation at reg. Pass nil to
// uninstall (the default state).
func Observe(reg *obs.Registry) {
	compactSeconds.Store(reg.Histogram("wvq_mvcc_compact_seconds",
		"Latency of layer-fold compactions.", nil))
}
