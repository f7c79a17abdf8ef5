package layout

import (
	"sync/atomic"

	"repro/internal/obs"
)

// Observability for the layout tier, following the storage package's
// pattern: Observe installs a metric bundle into an atomic pointer; every
// counting site is an atomic load plus a branch when observation is off.

// layoutMetrics is the package's metric bundle, built once per Observe.
type layoutMetrics struct {
	hotHits        *obs.Counter
	coldHits       *obs.Counter
	blockLoads     *obs.Counter
	blockLoadFails *obs.Counter
}

var lMetrics atomic.Pointer[layoutMetrics]

// Observe points the layout tier's instrumentation at reg. Pass nil to
// uninstall (the default state).
func Observe(reg *obs.Registry) {
	if reg == nil {
		lMetrics.Store(nil)
		return
	}
	lMetrics.Store(&layoutMetrics{
		hotHits: reg.Counter("wvq_storage_layout_hits_total",
			"Layout-store retrievals by serving tier.", obs.L("tier", "hot")),
		coldHits: reg.Counter("wvq_storage_layout_hits_total",
			"Layout-store retrievals by serving tier.", obs.L("tier", "cold")),
		blockLoads: reg.Counter("wvq_storage_layout_block_loads_total",
			"Cold blocks physically read and checksummed."),
		blockLoadFails: reg.Counter("wvq_storage_layout_block_load_failures_total",
			"Cold-block loads rejected by read errors or their checksum."),
	})
}

// obsHotHits / obsColdHits count one atomic add per served run instead of
// one per key.
func obsHotHits(n int64) {
	if m := lMetrics.Load(); m != nil {
		m.hotHits.Add(n)
	}
}

func obsColdHits(n int64) {
	if m := lMetrics.Load(); m != nil {
		m.coldHits.Add(n)
	}
}

func obsBlockLoad() {
	if m := lMetrics.Load(); m != nil {
		m.blockLoads.Inc()
	}
}

func obsBlockLoadFail() {
	if m := lMetrics.Load(); m != nil {
		m.blockLoadFails.Inc()
	}
}
