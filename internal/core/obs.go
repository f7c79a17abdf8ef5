package core

import (
	"sync/atomic"

	"repro/internal/obs"
)

// Observability for the evaluation core. Observe installs a metrics bundle
// into a package-level atomic pointer; step paths load it once per call (one
// relaxed atomic load plus a nil check when observation is off) and NewRun
// stays entirely call-free so it keeps inlining — the <5% / 0-extra-alloc
// nil-path budget pinned by BENCH_obs.json depends on both.
//
// A run's recorder is separate from metrics: AttachProfile hands a run an
// obs.QueryProfile and every StepBatchCtx records one row — batch size,
// retrieved count, skips, wall time and the Theorem-1 bound after it.

// coreMetrics is the package's metric bundle, built once per Observe.
type coreMetrics struct {
	planBuildSeconds    *obs.Histogram
	schedCacheHits      *obs.Counter
	schedCacheMisses    *obs.Counter
	schedCacheEvictions *obs.Counter
	stepBatchSeconds    *obs.Histogram
	runsStarted         *obs.Counter
}

var coMetrics atomic.Pointer[coreMetrics]

// Observe points the core's instrumentation at reg. Pass nil to uninstall
// (the default state). Step paths read the bundle per call, so Observe takes
// effect immediately, including for runs already in flight.
func Observe(reg *obs.Registry) {
	if reg == nil {
		coMetrics.Store(nil)
		return
	}
	coMetrics.Store(&coreMetrics{
		planBuildSeconds: reg.Histogram("wvq_core_plan_build_seconds",
			"Latency of master-list plan construction.", nil),
		schedCacheHits: reg.Counter("wvq_core_schedule_cache_hits_total",
			"Retrieval-schedule lookups served from the per-plan cache."),
		schedCacheMisses: reg.Counter("wvq_core_schedule_cache_misses_total",
			"Retrieval-schedule lookups that had to build a schedule."),
		schedCacheEvictions: reg.Counter("wvq_core_schedule_cache_evictions_total",
			"Retrieval schedules dropped by the per-plan cache's LRU bound."),
		stepBatchSeconds: reg.Histogram("wvq_core_stepbatch_seconds",
			"Latency of progressive step batches (a single step is a batch of one).", nil),
		runsStarted: reg.Counter("wvq_core_runs_total",
			"Progressive runs started (counted at the run's schedule lookup)."),
	})
}

// coObs returns the installed bundle, or nil when observation is off.
func coObs() *coreMetrics { return coMetrics.Load() }

// AttachProfile points the run at its recorder: every StepBatchCtx records
// one row (batch size, cumulative retrieved, skips, wall time, and the bound
// WorstCaseBound(coefficientMass) after it), and attaching records the
// starting point. coefficientMass is K = Σ|Δ̂[ξ]| as in WorstCaseBound. A
// nil profile detaches; the off path pays one nil check per batch.
func (r *Run) AttachProfile(p *obs.QueryProfile, coefficientMass float64) {
	r.profile = p
	r.profileMass = coefficientMass
	if p != nil {
		p.Begin(r.cursor, r.WorstCaseBound(coefficientMass), len(r.skipped))
	}
}
