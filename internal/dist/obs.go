package dist

import (
	"sync/atomic"

	"repro/internal/obs"
)

// Observability for the distributed tier. The per-shard ledger is the
// coordinator's own (Health; whoever exposes it reads that). The one number
// nothing else keeps is how long a fan-out took, pushed into the histogram
// Observe installs; with none installed a fan-out pays one atomic load plus
// a branch.

var fanoutSeconds atomic.Pointer[obs.Histogram]

// Observe points the distributed tier's instrumentation at reg. Pass nil to
// uninstall (the default state).
func Observe(reg *obs.Registry) {
	fanoutSeconds.Store(reg.Histogram("wvq_dist_fanout_seconds",
		"Latency of coordinator batch fan-outs (all shards merged).", nil))
}
