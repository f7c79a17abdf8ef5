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
// Run traces are separate from metrics: AttachTrace hands a run an
// obs.RunTrace and the run records its Theorem-1 bound trajectory — bound
// value vs. retrieved-coefficient count — as it advances, finishing the
// trace automatically when the schedule drains.

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

// AttachTrace points the run at a bound-trajectory trace: every advance
// records (retrieved, WorstCaseBound(coefficientMass), skipped), and the
// trace is finished automatically when the schedule drains.
// coefficientMass is K = Σ|Δ̂[ξ]| as in WorstCaseBound. Attaching also
// records the starting point (0 retrievals, initial bound). A nil trace
// detaches.
func (r *Run) AttachTrace(t *obs.RunTrace, coefficientMass float64) {
	r.trace = t
	r.traceMass = coefficientMass
	r.traceStep()
}

// AttachProfile points the run at an EXPLAIN ANALYZE profile: every
// StepBatchCtx records one StepProfile row (batch size, cumulative
// retrieved, skips, wall time, and the bound when a trace is attached
// too). A nil profile detaches; the off path pays one nil check per batch.
func (r *Run) AttachProfile(p *obs.QueryProfile) {
	r.profile = p
}

// traceStep samples the attached trace after an advance; a run with no
// trace pays one nil-check.
func (r *Run) traceStep() {
	if r.trace == nil {
		return
	}
	bound := r.WorstCaseBound(r.traceMass)
	if r.Done() {
		r.trace.Finish(true, r.cursor, bound, len(r.skipped))
		return
	}
	r.trace.Record(r.cursor, bound, len(r.skipped))
}
