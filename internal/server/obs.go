package server

import (
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/mvcc"
	"repro/internal/obs"
	"repro/internal/storage"
)

// Observability for the HTTP server. Handler.Observe installs the observer:
// it points the instrumentation the packages push (latency histograms and
// the counters nothing else keeps) at the observer's registry, declares the
// read families — every counter a component already reports through /stats,
// read from the same StatsResponse /stats renders — and arms the server's
// own middleware: request IDs, per-endpoint latency and status-code
// counters, an in-flight gauge, SSE stream and degraded-response counters,
// structured request logs, and per-run bound-trajectory traces. With no
// observer installed ServeHTTP routes directly, exactly as before.
//
// One owner per number: a family is pushed by the code that produces it or
// read from the component that keeps it, never both (metric-lint checks).

// endpoints is the fixed label set for per-endpoint metrics; unknown paths
// collapse into "other" so the metric cardinality is bounded.
var endpoints = []string{"/healthz", "/stats", "/query", "/query/stream", "/prepare", "/ingest", "other"}

// endpointLabel maps a request path to its metric label. DELETE
// /prepare/<handle> collapses into "/prepare" to keep cardinality bounded.
func endpointLabel(path string) string {
	switch path {
	case "/healthz", "/stats", "/query", "/query/stream", "/prepare", "/ingest":
		return path
	}
	if strings.HasPrefix(path, "/prepare/") {
		return "/prepare"
	}
	return "other"
}

// serverMetrics is the handler's pushed metric bundle, built once per
// Observe.
type serverMetrics struct {
	reg            *obs.Registry
	requestSeconds map[string]*obs.Histogram // keyed by endpoint label
	inFlight       *obs.Gauge
	sseStreams     *obs.Gauge
	degraded       *obs.Counter
}

// Observe installs the observer across the whole retrieval path: the
// storage, core, sched, dist and mvcc packages push what only they know into
// o.Registry, the registry reads everything else from this handler's stats,
// and the handler's middleware starts collecting HTTP metrics,
// request-scoped logs, and per-run recorders. Pass nil to uninstall
// everything. Call before serving; the handler reads the installed state on
// every request.
func (h *Handler) Observe(o *obs.Observer) {
	var reg *obs.Registry
	if o != nil {
		reg = o.Registry
	}
	storage.Observe(reg)
	core.Observe(reg)
	dist.Observe(reg)
	mvcc.Observe(reg)
	h.obs = o
	if reg == nil {
		h.met = nil
		return
	}
	h.readFamilies(obs.ReadFrom(reg, h.stats))
	m := &serverMetrics{
		reg:            reg,
		requestSeconds: make(map[string]*obs.Histogram, len(endpoints)),
		inFlight: reg.Gauge("wvq_http_in_flight",
			"HTTP requests currently being served."),
		sseStreams: reg.Gauge("wvq_http_sse_streams",
			"SSE progress streams currently open."),
		degraded: reg.Counter("wvq_http_degraded_total",
			"Responses served degraded (some retrievals failed permanently)."),
	}
	for _, ep := range endpoints {
		m.requestSeconds[ep] = reg.Histogram("wvq_http_request_seconds",
			"HTTP request latency by endpoint.", nil, obs.L("endpoint", ep))
	}
	h.met = m
}

// readFamilies is the table of read families: each projects one field of the
// StatsResponse onto a metric. A section the database does not have (no
// layout, no MVCC, no shards) reads as zeros, so every process exports the
// same families.
func (h *Handler) readFamilies(g *obs.ReadGroup[StatsResponse]) {
	type stats = StatsResponse
	ofLayout := func(f func(*repro.LayoutStats) int64) func(*stats) int64 {
		return func(s *stats) int64 {
			if s.Layout == nil {
				return 0
			}
			return f(s.Layout)
		}
	}
	ofMVCC := func(f func(*repro.MVCCStats) int64) func(*stats) int64 {
		return func(s *stats) int64 {
			if s.Mvcc == nil {
				return 0
			}
			return f(s.Mvcc)
		}
	}

	g.ReadCounter("wvq_sched_submitted_total", "Jobs admitted into the run table or waiting queue.",
		func(s *stats) int64 { return s.Scheduler.Submitted })
	g.ReadCounter("wvq_sched_rejected_total", "Jobs rejected by admission control (table and queue full).",
		func(s *stats) int64 { return s.Scheduler.Rejected })
	g.ReadCounter("wvq_sched_completed_total", "Runs that finished normally (exact or budget reached).",
		func(s *stats) int64 { return s.Scheduler.Completed })
	g.ReadCounter("wvq_sched_cancelled_total", "Runs finished by context cancellation or deadline.",
		func(s *stats) int64 { return s.Scheduler.Cancelled })
	g.ReadCounter("wvq_sched_slices_total", "Scheduling turns executed.",
		func(s *stats) int64 { return s.Scheduler.Slices })
	g.ReadCounter("wvq_sched_stepped_total", "Retrievals performed across all slices.",
		func(s *stats) int64 { return s.Scheduler.Stepped })
	g.ReadGauge("wvq_sched_queue_depth", "Jobs waiting in the admission queue.",
		func(s *stats) int64 { return int64(s.Scheduler.Queued) })
	g.ReadGauge("wvq_sched_active_runs", "Runs currently in the round-robin run table.",
		func(s *stats) int64 { return int64(s.Scheduler.Active) })

	g.ReadCounter("wvq_storage_coalesce_requests_total", "Coefficients requested through the coalescing layer.",
		func(s *stats) int64 { return s.Coalescing.Requests })
	g.ReadCounter("wvq_storage_coalesce_fetched_total", "Coefficients physically fetched by the coalescing layer.",
		func(s *stats) int64 { return s.Coalescing.Fetched })
	g.ReadCounter("wvq_storage_coalesce_shared_total", "Coefficients served by joining another caller's in-flight fetch.",
		func(s *stats) int64 { return s.Coalescing.Coalesced })

	g.ReadCounter("wvq_storage_layout_hits_total", "Stored keys the layout store served, each from a checksummed block.",
		ofLayout(func(l *repro.LayoutStats) int64 { return l.ColdHits }))
	g.ReadCounter("wvq_storage_layout_block_loads_total", "Block checksum checks that passed: each block's first read.",
		ofLayout(func(l *repro.LayoutStats) int64 { return l.BlockLoads }))
	g.ReadCounter("wvq_storage_layout_block_load_failures_total", "Block checksum checks that failed; a failed block is checked again on its next read.",
		ofLayout(func(l *repro.LayoutStats) int64 { return l.BlockLoadFailures }))

	g.ReadGauge("wvq_mvcc_version", "Head snapshot version (applies since open).",
		ofMVCC(func(m *repro.MVCCStats) int64 { return int64(m.Version) }))
	g.ReadGauge("wvq_mvcc_layers", "Write batches above the head's base.",
		ofMVCC(func(m *repro.MVCCStats) int64 { return int64(m.Layers) }))
	g.ReadGauge("wvq_mvcc_layer_keys", "Entries in the head's overlay.",
		ofMVCC(func(m *repro.MVCCStats) int64 { return int64(m.LayerKeys) }))
	g.ReadGauge("wvq_mvcc_pinned_snapshots", "Outstanding pinned snapshot handles.",
		ofMVCC(func(m *repro.MVCCStats) int64 { return m.Pinned }))
	g.ReadCounter("wvq_mvcc_applies_total", "Write batches published as versions.",
		ofMVCC(func(m *repro.MVCCStats) int64 { return m.Applies }))
	g.ReadCounter("wvq_mvcc_applied_tuples_total", "Tuple operations across published batches.",
		ofMVCC(func(m *repro.MVCCStats) int64 { return m.AppliedTuples }))
	g.ReadCounter("wvq_mvcc_applied_keys_total", "Coefficients touched by published batches.",
		ofMVCC(func(m *repro.MVCCStats) int64 { return m.AppliedKeys }))
	g.ReadCounter("wvq_mvcc_compactions_total", "Completed compactions: overlay folds into a new base.",
		ofMVCC(func(m *repro.MVCCStats) int64 { return m.Compactions }))
	g.ReadCounter("wvq_mvcc_compacted_layers_total", "Write batches folded into new bases by compactions.",
		ofMVCC(func(m *repro.MVCCStats) int64 { return m.CompactedLayers }))

	g.ReadCounter("wvq_dist_degraded_keys_total", "Coefficient keys the coordinator returned as per-key failures (degraded retrievals).",
		func(s *stats) int64 {
			if s.Dist == nil {
				return 0
			}
			return s.Dist.DegradedKeys
		})
	// One child per shard of a distributed database; the shard count is fixed
	// when it is opened.
	health, _ := h.db.ShardHealth()
	for i := range health {
		shard := obs.L("shard", strconv.Itoa(i))
		g.ReadCounter("wvq_dist_shard_requests_total", "Sub-batches the coordinator sent to each shard.",
			func(s *stats) int64 { return s.Dist.Health[i].Requests }, shard)
		g.ReadCounter("wvq_dist_shard_keys_total", "Coefficient keys the coordinator routed to each shard.",
			func(s *stats) int64 { return s.Dist.Health[i].Keys }, shard)
		g.ReadCounter("wvq_dist_shard_errors_total", "Sub-batches that came back from each shard with any failure.",
			func(s *stats) int64 { return s.Dist.Health[i].Errors }, shard)
	}

	g.ReadCounter("wvq_core_plan_registry_hits_total", "Prepare calls answered by a resident prepared plan.",
		func(s *stats) int64 { return s.Prepared.Hits })
	g.ReadCounter("wvq_core_plan_registry_misses_total", "Prepare calls that had to build (or template-bind) a plan.",
		func(s *stats) int64 { return s.Prepared.Misses })
	g.ReadCounter("wvq_core_plan_registry_evictions_total", "Prepared plans dropped by the registry's LRU bound.",
		func(s *stats) int64 { return s.Prepared.Evictions })
	g.ReadCounter("wvq_core_template_binds_total", "Plan builds served by re-weighting a same-shape resident plan.",
		func(s *stats) int64 { return s.Prepared.TemplateBinds })

	g.ReadCounter("wvq_http_prepared_executes_total", "Query executions that resolved a prepare handle.",
		func(s *stats) int64 { return s.Prepared.PreparedExecutes })
	g.ReadCounter("wvq_http_adhoc_executes_total", "Query executions from inline statement batches.",
		func(s *stats) int64 { return s.Prepared.AdhocExecutes })
}

// statusRecorder captures the response status code for metrics and logs.
type statusRecorder struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (s *statusRecorder) WriteHeader(code int) {
	if !s.wrote {
		s.code = code
		s.wrote = true
	}
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusRecorder) Write(b []byte) (int, error) {
	if !s.wrote {
		s.code = http.StatusOK
		s.wrote = true
	}
	return s.ResponseWriter.Write(b)
}

// flushRecorder is a statusRecorder over a flushable writer: the SSE
// handler type-asserts http.Flusher, so the wrapper must preserve it.
type flushRecorder struct {
	*statusRecorder
	f http.Flusher
}

func (f *flushRecorder) Flush() { f.f.Flush() }

// recordStatus wraps w so the middleware can read the response code,
// preserving http.Flusher when the underlying writer has it.
func recordStatus(w http.ResponseWriter) (http.ResponseWriter, *statusRecorder) {
	sr := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
	if f, ok := w.(http.Flusher); ok {
		return &flushRecorder{statusRecorder: sr, f: f}, sr
	}
	return sr, sr
}

// serveObserved is the instrumented request path: request ID + log
// threading, in-flight gauge, latency histogram, status-code counter, and
// one structured log line per request.
func (h *Handler) serveObserved(w http.ResponseWriter, r *http.Request) {
	reqID := obs.NewRequestID()
	ctx := obs.WithRequestID(r.Context(), reqID)
	log := h.obs.Logger().With("request_id", reqID)
	ctx = obs.WithLogger(ctx, log)
	r = r.WithContext(ctx)

	endpoint := endpointLabel(r.URL.Path)
	wrapped, sr := recordStatus(w)

	h.met.inFlight.Inc()
	start := time.Now()
	h.route(wrapped, r)
	elapsed := time.Since(start)
	h.met.inFlight.Dec()

	h.met.requestSeconds[endpoint].Observe(elapsed.Seconds())
	h.met.reg.Counter("wvq_http_requests_total",
		"HTTP requests by endpoint and status code.",
		obs.L("endpoint", endpoint), obs.L("code", strconv.Itoa(sr.code))).Inc()
	log.Info("request",
		"method", r.Method,
		"path", r.URL.Path,
		"status", sr.code,
		"duration_ms", float64(elapsed.Microseconds())/1000)
}
