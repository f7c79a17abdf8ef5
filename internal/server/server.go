// Package server exposes a persisted wavelet database over HTTP: clients
// POST textual query batches with a retrieval budget and receive progressive
// (or exact) results with the paper's error guarantees attached. This is the
// deployment shape of the system — precompute once with wvload, serve many
// with wvqd.
//
// Every request executes through the internal/sched scheduler: concurrent
// batches advance in fair budget slices (one huge exact batch cannot starve
// small progressive ones), overlapping coefficient fetches coalesce into
// single store reads, and overload is rejected early with 429 + Retry-After
// instead of queueing without bound. /query answers with the final state;
// /query/stream delivers every intermediate snapshot over SSE.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/ql"
	"repro/internal/sched"
)

// Request guardrails: a statement list larger than maxStatements or a body
// beyond maxBodyBytes is client error, not capacity planning.
const (
	maxStatements = 256
	maxBodyBytes  = 1 << 20
)

// tooManyStatements answers 400 and reports true when src holds more than
// maxStatements statements, counted as the parser splits them — before the
// parse, which it would otherwise pay for a list it refuses.
func tooManyStatements(w http.ResponseWriter, src string) bool {
	if n := ql.CountStatements(src); n > maxStatements {
		http.Error(w, fmt.Sprintf("bad request: %d statements exceeds the limit of %d", n, maxStatements),
			http.StatusBadRequest)
		return true
	}
	return false
}

// Handler serves queries against one database through a shared scheduler.
type Handler struct {
	db    *repro.Database
	sched *sched.Scheduler
	// mass is K = Σ|Δ̂[ξ]| for error bounds of a view without MVCC, which
	// is one version for good; under MVCC each request reads its snapshot's.
	mass float64
	// obs and met are installed by Observe (obs.go); both nil means the
	// handler serves uninstrumented, exactly as before.
	obs *obs.Observer
	met *serverMetrics
	// registry is the database's prepared-plan tier. Every request resolves
	// its plan here: POST /prepare registers a batch and returns a handle,
	// /query with a handle executes without touching the planner, and inline
	// batches hit the registry transparently (a repeated batch costs one
	// canonicalization, not a plan build).
	registry *repro.PlanRegistry
	// preparedExecs / adhocExecs count query executions by plan source;
	// ingestedTuples counts tuple operations applied through POST /ingest.
	preparedExecs, adhocExecs, ingestedTuples atomic.Int64
	// slowQuery is the slow-query log threshold (0 disables); slowQueries
	// counts responses that crossed it.
	slowQuery   time.Duration
	slowQueries atomic.Int64
}

// Options configures the handler beyond scheduler sizing.
type Options struct {
	// Sched sizes the shared scheduler (zero value = defaults).
	Sched sched.Config
	// PlanCache bounds the prepared-plan registry; ≤0 selects
	// repro.DefaultPlanCacheCapacity.
	PlanCache int
	// MaxPreparedPerTenant bounds how many prepared plans one tenant may
	// hold at once (the registry counts them). Default 32; negative means
	// unlimited.
	MaxPreparedPerTenant int
	// SlowQuery enables the slow-query log: any request whose wall time
	// reaches the threshold is profiled and emitted as a structured log
	// record (and flagged in /debug/profiles). 0 disables.
	SlowQuery time.Duration
}

// New wraps a database in an HTTP handler (the zero Options select every
// default). Requests execute in parallel — every view takes any number of
// readers, and the handler writes only through EnableMVCC's Apply — and
// cross-run fetch coalescing is added to the database's stack where a fetch
// can cost more than joining one in flight: over every store that does not
// answer from process memory, which is a shard coordinator or a stack with
// injected faults. A layout file answers from memory.
func New(db *repro.Database, opts Options) *Handler {
	if stack := db.Stack(); !stack.Coalesce && !db.InMemory() {
		stack.Coalesce = true
		db.SetStack(stack)
	}
	// Every view carries its mass from open time: the error is always nil.
	mass, _ := db.CoefficientMass()
	h := &Handler{db: db, sched: sched.New(opts.Sched), mass: mass,
		slowQuery: opts.SlowQuery}
	h.registry = db.EnablePreparedPlans(opts.PlanCache)
	perTenant := opts.MaxPreparedPerTenant
	if perTenant == 0 {
		perTenant = defaultPreparedPerTenant
	}
	h.registry.LimitTenants(perTenant)
	return h
}

// Close drains the scheduler: pending runs are cancelled and workers
// stopped. Call after http.Server.Shutdown.
func (h *Handler) Close() { h.sched.Close() }

// QueryRequest is the POST /query and /query/stream body.
type QueryRequest struct {
	// Statements is a ';'-separated batch in the textual query language.
	Statements string `json:"statements"`
	// Handle executes a plan prepared via POST /prepare instead of an inline
	// statement list. Exactly one of Handle and Statements may be set; results
	// come back in the prepared batch's canonical query order.
	Handle string `json:"handle,omitempty"`
	// Budget limits retrievals; 0 or ≥ the master list means exact.
	Budget int `json:"budget,omitempty"`
	// Priority weights the batch's scheduler quantum: "low", "normal"
	// (default) or "high".
	Priority string `json:"priority,omitempty"`
	// TimeoutMS bounds wall-clock execution; on expiry the progressive
	// state reached so far is returned (timed_out is set).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// QueryResult is one query's answer.
type QueryResult struct {
	Query    string  `json:"query"`
	Estimate float64 `json:"estimate"`
	// Bound is the per-query worst-case error bound (present only for
	// progressive responses).
	Bound *float64 `json:"bound,omitempty"`
}

// QueryResponse is the POST /query reply (and the SSE "done" event).
type QueryResponse struct {
	Exact     bool `json:"exact"`
	Retrieved int  `json:"retrieved"`
	Distinct  int  `json:"distinct"`
	// Version is the database version the query evaluated against (present
	// only for MVCC databases; pinned for the whole request, so progressive
	// results are bit-stable under concurrent ingest).
	Version *uint64 `json:"version,omitempty"`
	// TimedOut marks a response cut short by timeout_ms: the results are
	// the progressive state reached within the deadline.
	TimedOut bool `json:"timed_out,omitempty"`
	// Degraded marks a partial result: some coefficient retrievals failed
	// permanently (Skipped of them), the estimates exclude those
	// contributions, and each result's bound covers the residual error.
	// Served with HTTP 206 on /query.
	Degraded bool `json:"degraded,omitempty"`
	// Skipped counts the coefficients that could not be retrieved.
	Skipped int           `json:"skipped,omitempty"`
	Results []QueryResult `json:"results"`
	// Profile is the EXPLAIN ANALYZE breakdown — plan source and build time,
	// queue delay, per-StepBatchCtx timings, per-tier retrieval attribution,
	// per-shard rows and the Theorem-1 bound trajectory. Present only when
	// the request asked for it with ?explain=1.
	Profile *obs.ProfileSnapshot `json:"profile,omitempty"`
}

// StatsResponse is the GET /stats reply.
type StatsResponse struct {
	Tuples       int64    `json:"tuples"`
	Coefficients int      `json:"coefficients"`
	Filter       string   `json:"filter"`
	Attributes   []string `json:"attributes"`
	Sizes        []int    `json:"sizes"`
	// Windows maps attribute bins back to raw units (from ingestion);
	// omitted when unknown.
	Windows [][2]float64 `json:"windows,omitempty"`
	// Retrievals counts the keys asked of the store stack beneath its
	// coalescing layer (repro.Database.Retrievals): physical fetches, a
	// coalesced fetch once however many runs share it, a retried key once
	// per call, and under MVCC only what reaches the base tier.
	Retrievals int64 `json:"retrievals"`
	// StoreStack is the store stack retrievals cross, base first
	// (repro.Database.StoreStack).
	StoreStack string `json:"store_stack"`
	// Scheduler reports admission and slicing counters.
	Scheduler sched.Stats `json:"scheduler"`
	// Coalescing reports cross-run I/O sharing.
	Coalescing repro.CoalesceStats `json:"coalescing"`
	// Prepared reports the prepared-plan registry and the execute-path mix.
	Prepared PreparedStats `json:"prepared"`
	// Dist reports the shard fan-out when the database is distributed
	// (opened over remote shards); omitted for local databases.
	Dist *DistStats `json:"dist,omitempty"`
	// Layout reports the persistent layout store's serving tiers when the
	// database is layout-backed (wvqd -layout); omitted otherwise.
	Layout *repro.LayoutStats `json:"layout,omitempty"`
	// Mvcc reports the live-update tier (version, overlay depth, applies,
	// compactions, pins) when the database runs under MVCC (wvqd -mvcc);
	// omitted otherwise.
	Mvcc *repro.MVCCStats `json:"mvcc,omitempty"`
	// Ingested counts tuples applied through POST /ingest.
	Ingested int64 `json:"ingested,omitempty"`
	// Diagnostics reports the query-diagnostics tier: the slow-query
	// counter, the /debug/profiles ring, and per-shard wire negotiation.
	Diagnostics DiagnosticsStats `json:"diagnostics"`
}

// DistStats is the /stats view of the distributed tier: one health ledger
// per shard, as tracked by the coordinator.
type DistStats struct {
	// Shards counts the shard servers fanned out to.
	Shards int `json:"shards"`
	// DegradedKeys totals the keys returned as per-key failures across all
	// shards — each one became a skipped coefficient in some run.
	DegradedKeys int64 `json:"degraded_keys"`
	// Health is the per-shard ledger: requests, keys, errors, last-seen.
	Health []repro.ShardHealth `json:"health"`
}

// DiagnosticsStats is the /stats view of the query-diagnostics tier.
type DiagnosticsStats struct {
	// SlowQueries counts responses whose wall time crossed the slow-query
	// threshold; SlowQueryThresholdMS echoes the threshold (0 = disabled).
	SlowQueries          int64 `json:"slow_queries"`
	SlowQueryThresholdMS int64 `json:"slow_query_threshold_ms,omitempty"`
	// ProfilesRetained / ProfileCapacity / ProfilesTotal describe the
	// observer's run ring (/debug/profiles): runs listed, its depth, and
	// runs ever started.
	ProfilesRetained int    `json:"profiles_retained"`
	ProfileCapacity  int    `json:"profile_capacity"`
	ProfilesTotal    uint64 `json:"profiles_total"`
	// ShardWireVersions is the negotiated shard wire-protocol version per
	// shard (0 = not yet connected). Omitted for local databases.
	ShardWireVersions []uint16 `json:"shard_wire_versions,omitempty"`
}

// PreparedStats is the /stats view of the prepared-plan tier.
type PreparedStats struct {
	repro.PlanRegistryStats
	// PreparedExecutes counts query executions that resolved a prepare handle.
	PreparedExecutes int64 `json:"prepared_executes"`
	// AdhocExecutes counts inline-batch executions (which still hit the
	// registry transparently — see Hits/Misses for the cache outcome).
	AdhocExecutes int64 `json:"adhoc_executes"`
}

// ServeHTTP implements http.Handler, routing /query, /query/stream, /stats
// and /healthz. With an observer installed (Observe), requests pass through
// the instrumentation middleware first.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h.obs != nil && h.met != nil {
		h.serveObserved(w, r)
		return
	}
	h.route(w, r)
}

// route dispatches a request to its endpoint handler.
func (h *Handler) route(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/healthz" && r.Method == http.MethodGet:
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	case r.URL.Path == "/stats" && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, h.stats())
	case r.URL.Path == "/query" && r.Method == http.MethodPost:
		h.query(w, r)
	case r.URL.Path == "/ingest" && r.Method == http.MethodPost:
		h.ingest(w, r)
	case r.URL.Path == "/query/stream" && r.Method == http.MethodPost:
		h.stream(w, r)
	case r.URL.Path == "/prepare" && r.Method == http.MethodPost:
		h.prepare(w, r)
	case strings.HasPrefix(r.URL.Path, "/prepare/") && r.Method == http.MethodDelete:
		h.unprepare(w, r)
	default:
		http.Error(w, "not found", http.StatusNotFound)
	}
}

// stats gathers the /stats reply. It is the one reader of the counters the
// handler's components keep — GET /stats renders it and the metrics registry
// projects the same struct onto its read families (obs.go), so the two
// cannot disagree. Each section is its owner's own Stats(): one locked read
// of the scheduler, one pass over the coalescing counters, and so on.
func (h *Handler) stats() StatsResponse {
	resp := StatsResponse{
		Tuples:       h.db.TupleCount(),
		Coefficients: h.db.NonzeroCoefficients(),
		Filter:       h.db.Filter().Name,
		Attributes:   h.db.Schema().Names,
		Sizes:        h.db.Schema().Sizes,
		Windows:      h.db.Windows(),
		Retrievals:   h.db.Retrievals(),
		StoreStack:   h.db.StoreStack(),
		Scheduler:    h.sched.Stats(),
	}
	resp.Coalescing, _ = h.db.CoalescingStats()
	resp.Prepared = PreparedStats{
		PlanRegistryStats: h.registry.Stats(),
		PreparedExecutes:  h.preparedExecs.Load(),
		AdhocExecutes:     h.adhocExecs.Load(),
	}
	if health, ok := h.db.ShardHealth(); ok {
		ds := &DistStats{Shards: len(health), Health: health}
		for _, sh := range health {
			ds.DegradedKeys += sh.DegradedKeys
		}
		resp.Dist = ds
	}
	if ls, ok := h.db.LayoutStats(); ok {
		resp.Layout = &ls
	}
	if ms, ok := h.db.MVCCStats(); ok {
		resp.Mvcc = &ms
		resp.Ingested = h.ingestedTuples.Load()
	}
	resp.Diagnostics = DiagnosticsStats{
		SlowQueries:          h.slowQueries.Load(),
		SlowQueryThresholdMS: h.slowQuery.Milliseconds(),
	}
	d := &resp.Diagnostics
	d.ProfilesRetained, d.ProfileCapacity, d.ProfilesTotal = h.obs.RingStats()
	if vers, ok := h.db.ShardWireVersions(); ok {
		d.ShardWireVersions = vers
	}
	return resp
}

// submission is a parsed, admitted request: everything both endpoints need
// to render results.
type submission struct {
	batch  repro.Batch
	plan   *repro.Plan
	ticket *sched.Ticket
	cancel context.CancelFunc
	// snap pins the MVCC version the run evaluates against (nil without
	// MVCC); version is surfaced in the response. The endpoint releases the
	// pin when the request finishes.
	snap    *repro.Snapshot
	version *uint64
	// perm maps caller query position i to the plan's result slot (nil means
	// identity). Inline batches execute on the registry's canonical-order
	// plan, so their results must be mapped back to statement order.
	perm []int
	// profile is the run's recorder (nil when the handler is unobserved and
	// neither ?explain=1 nor a slow-query threshold asked for one);
	// profiled reports whether it carries tier attribution and is checked
	// against the slow-query threshold, explain whether the client asked
	// for it in the response.
	profile  *obs.QueryProfile
	profiled bool
	explain  bool
}

// release unpins the submission's MVCC snapshot (idempotent, nil-safe).
func (sub *submission) release() {
	if sub.snap != nil {
		sub.snap.Release()
	}
}

// admit parses, validates, plans and submits a request. On any failure it
// writes the HTTP error and returns nil.
func (h *Handler) admit(w http.ResponseWriter, r *http.Request) *submission {
	var req QueryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return nil
	}
	if req.Budget < 0 {
		http.Error(w, "bad request: negative budget", http.StatusBadRequest)
		return nil
	}
	if req.TimeoutMS < 0 {
		http.Error(w, "bad request: negative timeout_ms", http.StatusBadRequest)
		return nil
	}
	var prio sched.Priority
	switch strings.ToLower(req.Priority) {
	case "", "normal":
		prio = sched.PriorityNormal
	case "low":
		prio = sched.PriorityLow
	case "high":
		prio = sched.PriorityHigh
	default:
		http.Error(w, "bad request: priority must be low, normal or high", http.StatusBadRequest)
		return nil
	}
	if req.Handle != "" && req.Statements != "" {
		http.Error(w, "bad request: handle and statements are mutually exclusive", http.StatusBadRequest)
		return nil
	}
	explain := false
	if v := r.URL.Query().Get("explain"); v != "" {
		b, err := strconv.ParseBool(v)
		if err != nil {
			http.Error(w, "bad request: explain must be a boolean", http.StatusBadRequest)
			return nil
		}
		explain = b
	}
	// Profiling is armed by an explicit ?explain=1 or by the slow-query
	// threshold (every request is then profiled so a slow one has its
	// breakdown ready); otherwise no clocks are read and no profile exists.
	wantProfile := explain || h.slowQuery > 0
	var planStart time.Time
	if wantProfile {
		planStart = time.Now()
	}
	var (
		batch      repro.Batch
		plan       *repro.Plan
		perm       []int
		planSource string
	)
	if req.Handle != "" {
		// Prepared execute: the plan (and its warmed schedule) is resident —
		// no parsing, no planning, no allocation on this path.
		prep, ok := h.registry.Lookup(req.Handle)
		if !ok {
			http.Error(w, "unknown prepare handle: "+req.Handle, http.StatusNotFound)
			return nil
		}
		batch, plan = prep.Batch, prep.Plan
		planSource = "registry-hit"
		h.preparedExecs.Add(1)
	} else {
		if tooManyStatements(w, req.Statements) {
			return nil
		}
		parsed, err := repro.ParseBatch(h.db.Schema(), req.Statements)
		if err != nil {
			http.Error(w, "bad query: "+err.Error(), http.StatusBadRequest)
			return nil
		}
		batch = parsed
		if len(batch) > maxStatements {
			http.Error(w, fmt.Sprintf("bad request: %d queries exceeds the limit of %d", len(batch), maxStatements),
				http.StatusBadRequest)
			return nil
		}
		// Inline batches resolve through the registry too: a repeated batch
		// (in any query order) reuses the resident plan, paying only the
		// canonicalization. The permutation maps canonical result slots back
		// to statement order.
		pp, cached, err := h.db.Prepare(batch)
		if err != nil {
			http.Error(w, "planning failed: "+err.Error(), http.StatusBadRequest)
			return nil
		}
		plan = pp.Plan()
		if cached {
			planSource = "cache-hit"
		} else {
			planSource = "built"
		}
		perm = make([]int, len(batch))
		for i := range batch {
			perm[i] = pp.CanonicalIndex(i)
		}
		h.adhocExecs.Add(1)
	}
	budget := req.Budget
	if budget >= plan.DistinctCoefficients() {
		budget = 0 // exact
	}
	var (
		buildDur   time.Duration
		setupStart time.Time
	)
	if wantProfile {
		buildDur = time.Since(planStart)
		setupStart = time.Now()
	}
	// Under MVCC the request pins one version for its whole lifetime:
	// ?version=N pins a retained historical snapshot, otherwise the head at
	// admission. The run, its Theorem-1 mass, and the response version all
	// come from that one pinned state, so progressive results are bit-stable
	// however much ingest lands mid-drain.
	var (
		snap    *repro.Snapshot
		version *uint64
	)
	if verParam := r.URL.Query().Get("version"); verParam != "" {
		if !h.db.MVCCEnabled() {
			http.Error(w, "bad request: version queries require an MVCC database", http.StatusBadRequest)
			return nil
		}
		v, err := strconv.ParseUint(verParam, 10, 64)
		if err != nil {
			http.Error(w, "bad request: version must be a non-negative integer", http.StatusBadRequest)
			return nil
		}
		sn, err := h.db.SnapshotAt(repro.Version(v))
		if err != nil {
			if errors.Is(err, repro.ErrVersionNotRetained) {
				http.Error(w, "version not retained: "+err.Error(), http.StatusNotFound)
			} else {
				http.Error(w, "snapshot failed: "+err.Error(), http.StatusInternalServerError)
			}
			return nil
		}
		snap = sn
	} else if h.db.MVCCEnabled() {
		sn, err := h.db.Snapshot()
		if err != nil {
			http.Error(w, "snapshot failed: "+err.Error(), http.StatusInternalServerError)
			return nil
		}
		snap = sn
	}
	mass := h.mass
	if snap != nil {
		ver := uint64(snap.Version())
		version = &ver
		if m, err := snap.CoefficientMass(); err == nil {
			mass = m
		}
	}
	var (
		ctx    context.Context
		cancel context.CancelFunc
	)
	if req.TimeoutMS > 0 {
		ctx, cancel = context.WithTimeout(r.Context(), time.Duration(req.TimeoutMS)*time.Millisecond)
	} else {
		ctx, cancel = context.WithCancel(r.Context())
	}
	var run *repro.Run
	if snap != nil {
		run = snap.NewRun(plan, repro.SSE())
	} else {
		run = h.db.NewRun(plan, repro.SSE())
	}
	reqID := obs.RequestID(r.Context())
	if reqID == "" {
		reqID = obs.NewRequestID()
	}
	label := req.Statements
	if req.Handle != "" {
		label = "handle:" + req.Handle
	}
	// One recorder per observed or profiled request: /debug/profiles lists
	// it from the start, and the run records its rows and bounds into it.
	var prof *obs.QueryProfile
	if h.obs != nil || wantProfile {
		prof = h.obs.StartRun(reqID, label)
		run.AttachProfile(prof, mass)
	}
	if wantProfile {
		// A profiled run's recorder rides the submission context: the
		// scheduler charges queue delay, and every storage tier under the
		// run's StepBatchCtx (coalescing, layout, MVCC, shard coordinator and
		// clients) records its share through obs.ProfileFrom.
		prof.SetPlan(planSource, buildDur, time.Since(setupStart), len(batch), plan.DistinctCoefficients())
		ctx = obs.WithProfile(ctx, prof)
	}
	ticket, err := h.sched.Submit(ctx, sched.Job{
		Run:      run,
		Budget:   budget,
		Priority: prio,
		Mass:     mass,
	})
	if err != nil {
		cancel()
		if snap != nil {
			snap.Release()
		}
		prof.Finish()
		if errors.Is(err, sched.ErrOverloaded) {
			w.Header().Set("Retry-After", strconv.Itoa(int(h.sched.RetryAfter().Seconds())))
			http.Error(w, "overloaded: run table and waiting queue full", http.StatusTooManyRequests)
		} else {
			http.Error(w, "unavailable: "+err.Error(), http.StatusServiceUnavailable)
		}
		return nil
	}
	return &submission{batch: batch, plan: plan, ticket: ticket, cancel: cancel, perm: perm,
		snap: snap, version: version, profile: prof, profiled: wantProfile, explain: explain}
}

// finishProfile closes the submission's recorder — a budget cut, timeout
// or cancellation leaves the run short of its schedule — and, for a
// profiled request, applies the slow-query threshold (structured log
// record + counter, and the flag /debug/profiles?slow=1 keeps) and returns
// the snapshot when the client asked for it with ?explain=1 (nil
// otherwise, and always nil for unprofiled requests).
func (h *Handler) finishProfile(ctx context.Context, sub *submission) *obs.ProfileSnapshot {
	p := sub.profile
	p.Finish()
	if !sub.profiled {
		return nil
	}
	slow := h.slowQuery > 0 && p.Wall() >= h.slowQuery
	if !slow && !sub.explain {
		return nil
	}
	if slow {
		p.MarkSlow()
	}
	snap := p.Snapshot()
	if slow {
		h.slowQueries.Add(1)
		obs.Logger(ctx).Warn("slow query",
			"label", snap.Label,
			"wall_ms", float64(snap.WallNanos)/1e6,
			"step_ms", float64(snap.StepNanos)/1e6,
			"queue_ms", float64(snap.Plan.QueueNanos)/1e6,
			"plan_source", snap.Plan.Source,
			"steps", len(snap.Steps),
			"shards", len(snap.Shards),
			"threshold_ms", h.slowQuery.Milliseconds())
	}
	if sub.explain {
		return &snap
	}
	return nil
}

// response renders a progress snapshot in the /query wire shape.
func (sub *submission) response(p sched.Progress, timedOut bool) QueryResponse {
	resp := QueryResponse{
		Exact:     p.Done && !p.Degraded,
		Retrieved: p.Retrieved,
		Distinct:  sub.plan.DistinctCoefficients(),
		Version:   sub.version,
		TimedOut:  timedOut,
		Degraded:  p.Degraded,
		Skipped:   p.Skipped,
		Results:   make([]QueryResult, len(sub.batch)),
	}
	for i, q := range sub.batch {
		slot := i
		if sub.perm != nil {
			slot = sub.perm[i]
		}
		res := QueryResult{Query: q.Label, Estimate: p.Estimates[slot]}
		if !resp.Exact && p.Bounds != nil {
			b := p.Bounds[slot]
			res.Bound = &b
		}
		resp.Results[i] = res
	}
	return resp
}

func (h *Handler) query(w http.ResponseWriter, r *http.Request) {
	sub := h.admit(w, r)
	if sub == nil {
		return
	}
	defer sub.cancel()
	defer sub.release()
	final, err := sub.ticket.Final()
	profSnap := h.finishProfile(r.Context(), sub)
	// A degraded result is a partial answer with bounds: 206, not 200.
	status := http.StatusOK
	if final.Degraded {
		status = http.StatusPartialContent
		if h.met != nil {
			h.met.degraded.Inc()
		}
	}
	switch {
	case err == nil:
		resp := sub.response(final, false)
		resp.Profile = profSnap
		writeJSON(w, status, resp)
	case errors.Is(err, context.DeadlineExceeded) && final.Retrieved > 0:
		// The latency budget expired: the progressive state reached is still
		// a valid answer with bounds — exactly what progressiveness buys.
		resp := sub.response(final, true)
		resp.Profile = profSnap
		writeJSON(w, status, resp)
	default:
		http.Error(w, "query cancelled: "+err.Error(), http.StatusServiceUnavailable)
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
