package obs

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Query profiles: the per-run EXPLAIN ANALYZE. Where a RunTrace records
// the *theory* of a run (the Theorem-1 bound trajectory), a QueryProfile
// records its *cost*: where the wall time went once the schedule fanned
// out over the coalescing layer, the tiered .wvls store, the MVCC overlay
// and the TCP shards. The profile is carried via context like a trace;
// an un-profiled context yields a nil *QueryProfile whose methods are all
// no-ops, so the off path pays one context lookup at the few recording
// sites that are not already behind one and nothing else.
//
// Recording sites (all optional — a layer that is not in the stack simply
// contributes nothing): the server records plan source and build time, the
// scheduler records queue delay, the evaluation core records one StepProfile
// per StepBatch, the coalescing store records requested/physical/coalesced
// key counts, the .wvls layout store records tier hits, the MVCC view
// records overlay-vs-base splits, and the shard coordinator records per-
// shard wall time, echoed remote serve time, response bytes and failures.

// PlanProfile attributes the run's setup cost.
type PlanProfile struct {
	// Source is how the plan was obtained: "registry-hit" (prepared handle,
	// cache hit), "registry-build" (prepared handle, built on miss),
	// "cache-hit" (ad-hoc batch, plan cache hit) or "built" (ad-hoc batch,
	// built from scratch).
	Source string `json:"source,omitempty"`
	// BuildNanos is the plan construction time (0 on a cache hit).
	BuildNanos int64 `json:"build_ns"`
	// SetupNanos is the run construction time (schedule materialization).
	SetupNanos int64 `json:"setup_ns"`
	// QueueNanos is time spent waiting for a scheduler worker.
	QueueNanos int64 `json:"queue_ns"`
	// Queries and Terms describe the plan's size (batch width, distinct
	// master-list coefficients).
	Queries int `json:"queries,omitempty"`
	Terms   int `json:"terms,omitempty"`
}

// StepProfile is one StepBatch of the drain as the profile saw it.
type StepProfile struct {
	// Batch is the number of schedule entries the step attempted.
	Batch int `json:"batch"`
	// Retrieved is the run's cumulative retrieval count after the step.
	Retrieved int `json:"retrieved"`
	// Skipped is the number of entries the step skipped on failures.
	Skipped int `json:"skipped,omitempty"`
	// DurNanos is the step's wall time.
	DurNanos int64 `json:"dur_ns"`
	// Bound is the Theorem-1 bound after the step (0 when untraced).
	Bound float64 `json:"bound,omitempty"`
}

// TierProfile attributes retrieved keys to the storage tiers that served
// them. Counters are cumulative over the run; a tier that is not in the
// stack stays zero.
type TierProfile struct {
	// Requested / Physical / Coalesced: keys entering the coalescing layer,
	// keys it actually fetched (flight leads), and keys served by joining
	// another key's flight.
	Requested int64 `json:"requested,omitempty"`
	Physical  int64 `json:"physical,omitempty"`
	Coalesced int64 `json:"coalesced,omitempty"`
	// LayoutHot / LayoutCold: .wvls keys served from the mmap-hot section
	// vs. blocks (verified windows of the mapping, or pread); BlockLoads and
	// Preads count the block checksums and positioned reads behind the cold
	// hits.
	LayoutHot  int64 `json:"layout_hot,omitempty"`
	LayoutCold int64 `json:"layout_cold,omitempty"`
	BlockLoads int64 `json:"block_loads,omitempty"`
	Preads     int64 `json:"preads,omitempty"`
	// MVCCLayer / MVCCBase: keys resolved from the snapshot's write layers
	// vs. delegated to the base store.
	MVCCLayer int64 `json:"mvcc_layer,omitempty"`
	MVCCBase  int64 `json:"mvcc_base,omitempty"`
}

// ShardProfile is one shard's contribution to a distributed run.
type ShardProfile struct {
	Shard int    `json:"shard"`
	Addr  string `json:"addr,omitempty"`
	// Batches and Keys count the sub-batches and keys routed to the shard.
	Batches int64 `json:"batches"`
	Keys    int64 `json:"keys"`
	// Errors counts failed keys; Degraded counts keys written off wholesale
	// when the shard's whole sub-batch failed (Degraded ⊆ Errors' cause but
	// reported separately: per-key failures vs. shard-down).
	Errors   int64 `json:"errors,omitempty"`
	Degraded int64 `json:"degraded,omitempty"`
	// WallNanos is coordinator-side wall time summed over sub-batches;
	// RemoteNanos is the shard-echoed serve time (v2 wire connections only)
	// — their difference is network + queueing.
	WallNanos   int64 `json:"wall_ns"`
	RemoteNanos int64 `json:"remote_ns,omitempty"`
	// Bytes is response bytes received from the shard.
	Bytes int64 `json:"bytes,omitempty"`
}

// ProfileSnapshot is the JSON shape of a profile: the `profile` section of
// an ?explain=1 response, the terminal SSE event, the slow-query log record
// and the /debug/profiles ring entry.
type ProfileSnapshot struct {
	ID    string    `json:"id"`
	Label string    `json:"label,omitempty"`
	Start time.Time `json:"start"`
	// WallNanos is the run's total wall time (set by Finish; 0 while live).
	WallNanos int64 `json:"wall_ns"`
	// StepNanos is the sum of the steps' wall times — the retrieval share
	// of WallNanos.
	StepNanos int64          `json:"step_ns"`
	Plan      PlanProfile    `json:"plan"`
	Steps     []StepProfile  `json:"steps"`
	Tiers     TierProfile    `json:"tiers"`
	Shards    []ShardProfile `json:"shards,omitempty"`
	// Bound is the Theorem-1 bound trajectory (present when the run was
	// also traced).
	Bound []RunPoint `json:"bound,omitempty"`
	// Slow marks a profile that crossed the slow-query threshold.
	Slow bool `json:"slow,omitempty"`
}

// QueryProfile accumulates one run's profile. A nil *QueryProfile is a
// no-op: every method nil-checks, so recording sites are unconditional.
// Methods are safe for concurrent use — the coordinator's per-shard
// goroutines record concurrently with each other.
type QueryProfile struct {
	mu      sync.Mutex
	snap    ProfileSnapshot
	shards  map[int]*ShardProfile
	wire    map[string]*remoteTally
	trace   *RunTrace
	maxStep int
}

// remoteTally is the wire-level accounting a shard client records under its
// address — the client knows bytes and the shard-echoed serve time but not
// the shard index, so Snapshot merges these into the shard rows by address.
type remoteTally struct {
	bytes       int64
	remoteNanos int64
}

// maxProfileSteps bounds a profile's per-step memory: an exact drain over
// millions of coefficients in tiny batches must not grow an unbounded step
// list. Beyond the cap, step durations still accumulate into StepNanos but
// individual rows are dropped (the cap is generous: a progressive drain
// makes tens of steps, not thousands).
const maxProfileSteps = 4096

// NewQueryProfile starts a profile for the run identified by id
// (conventionally the request ID) and label (e.g. the batch text).
func NewQueryProfile(id, label string) *QueryProfile {
	return &QueryProfile{
		snap:    ProfileSnapshot{ID: id, Label: label, Start: time.Now()},
		shards:  make(map[int]*ShardProfile),
		wire:    make(map[string]*remoteTally),
		maxStep: maxProfileSteps,
	}
}

// SetPlan records how the plan was obtained and what the setup cost.
func (p *QueryProfile) SetPlan(source string, build, setup time.Duration, queries, terms int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.snap.Plan.Source = source
	p.snap.Plan.BuildNanos = build.Nanoseconds()
	p.snap.Plan.SetupNanos = setup.Nanoseconds()
	p.snap.Plan.Queries = queries
	p.snap.Plan.Terms = terms
	p.mu.Unlock()
}

// AddQueueDelay records time spent waiting for a scheduler worker.
func (p *QueryProfile) AddQueueDelay(d time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.snap.Plan.QueueNanos += d.Nanoseconds()
	p.mu.Unlock()
}

// AttachTrace links the run's bound trajectory so the snapshot embeds it.
func (p *QueryProfile) AttachTrace(t *RunTrace) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.trace = t
	p.mu.Unlock()
}

// RecordStep appends one StepBatch: attempted batch size, cumulative
// retrieved after the step, entries skipped by this step, wall time, and
// the bound after the step (0 when unknown).
func (p *QueryProfile) RecordStep(batch, retrieved, skipped int, d time.Duration, bound float64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.snap.StepNanos += d.Nanoseconds()
	if len(p.snap.Steps) < p.maxStep {
		p.snap.Steps = append(p.snap.Steps, StepProfile{
			Batch:     batch,
			Retrieved: retrieved,
			Skipped:   skipped,
			DurNanos:  d.Nanoseconds(),
			Bound:     bound,
		})
	}
	p.mu.Unlock()
}

// AddCoalesce records one coalescing-layer batch: keys requested, flight
// leads physically fetched, and joins served from another key's flight.
func (p *QueryProfile) AddCoalesce(requested, physical, coalesced int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.snap.Tiers.Requested += int64(requested)
	p.snap.Tiers.Physical += int64(physical)
	p.snap.Tiers.Coalesced += int64(coalesced)
	p.mu.Unlock()
}

// AddLayout records one .wvls batch's tier attribution.
func (p *QueryProfile) AddLayout(hot, cold, blockLoads, preads int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.snap.Tiers.LayoutHot += hot
	p.snap.Tiers.LayoutCold += cold
	p.snap.Tiers.BlockLoads += blockLoads
	p.snap.Tiers.Preads += preads
	p.mu.Unlock()
}

// AddMVCC records one snapshot read's overlay-vs-base split.
func (p *QueryProfile) AddMVCC(layer, base int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.snap.Tiers.MVCCLayer += int64(layer)
	p.snap.Tiers.MVCCBase += int64(base)
	p.mu.Unlock()
}

// AddShard records one shard sub-batch as the coordinator saw it: keys
// routed, coordinator-side wall time, failed keys and wholesale-degraded
// keys. Wire-level numbers arrive separately via AddRemote.
func (p *QueryProfile) AddShard(shard int, addr string, keys int, wall time.Duration, errs, degraded int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	sp := p.shards[shard]
	if sp == nil {
		sp = &ShardProfile{Shard: shard, Addr: addr}
		p.shards[shard] = sp
	}
	sp.Batches++
	sp.Keys += int64(keys)
	sp.WallNanos += wall.Nanoseconds()
	sp.Errors += int64(errs)
	sp.Degraded += int64(degraded)
	p.mu.Unlock()
}

// AddRemote records one wire response from the shard client at addr:
// response bytes received and the shard-echoed serve time (0 on v1
// connections). Snapshot merges these into the shard rows by address.
func (p *QueryProfile) AddRemote(addr string, bytes int, remote time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	rt := p.wire[addr]
	if rt == nil {
		rt = &remoteTally{}
		p.wire[addr] = rt
	}
	rt.bytes += int64(bytes)
	rt.remoteNanos += remote.Nanoseconds()
	p.mu.Unlock()
}

// Finish stamps the run's total wall time. The first Finish wins.
func (p *QueryProfile) Finish() {
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.snap.WallNanos == 0 {
		p.snap.WallNanos = time.Since(p.snap.Start).Nanoseconds()
	}
	p.mu.Unlock()
}

// MarkSlow flags the profile as having crossed the slow-query threshold.
func (p *QueryProfile) MarkSlow() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.snap.Slow = true
	p.mu.Unlock()
}

// Wall returns the finished wall time (0 while live).
func (p *QueryProfile) Wall() time.Duration {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return time.Duration(p.snap.WallNanos)
}

// Snapshot returns a deep copy of the profile's current state, shard rows
// sorted by shard index, with the bound trajectory pulled from the attached
// run trace. Safe while the run is still advancing.
func (p *QueryProfile) Snapshot() ProfileSnapshot {
	if p == nil {
		return ProfileSnapshot{}
	}
	p.mu.Lock()
	out := p.snap
	out.Steps = make([]StepProfile, len(p.snap.Steps))
	copy(out.Steps, p.snap.Steps)
	out.Shards = make([]ShardProfile, 0, len(p.shards))
	for _, sp := range p.shards {
		row := *sp
		if rt := p.wire[row.Addr]; rt != nil {
			row.Bytes = rt.bytes
			row.RemoteNanos = rt.remoteNanos
		}
		out.Shards = append(out.Shards, row)
	}
	trace := p.trace
	p.mu.Unlock()
	sort.Slice(out.Shards, func(i, j int) bool { return out.Shards[i].Shard < out.Shards[j].Shard })
	if trace != nil {
		out.Bound = trace.Snapshot().Points
	}
	return out
}

// profileKey carries the active profile through a context.
type profileKey struct{}

// WithProfile returns ctx carrying p; recording sites below pick it up via
// ProfileFrom. A nil p returns ctx unchanged (profiling stays off).
func WithProfile(ctx context.Context, p *QueryProfile) context.Context {
	if p == nil {
		return ctx
	}
	return context.WithValue(ctx, profileKey{}, p)
}

// ProfileFrom returns the context's profile, or nil when un-profiled. The
// nil return is the off switch: every QueryProfile method no-ops on nil.
func ProfileFrom(ctx context.Context) *QueryProfile {
	if p, ok := ctx.Value(profileKey{}).(*QueryProfile); ok {
		return p
	}
	return nil
}

// DefaultProfileCapacity is the ring size NewObserver uses.
const DefaultProfileCapacity = 64

// ProfileSink retains the last N finished profile snapshots in a ring,
// served at /debug/profiles. Snapshots (not live profiles) are stored so a
// dump never contends with a running query.
type ProfileSink struct {
	mu    sync.Mutex
	buf   []ProfileSnapshot
	next  int
	full  bool
	total uint64
	slow  uint64
}

// NewProfileSink returns a sink holding the last capacity profiles
// (capacity ≤ 0 selects DefaultProfileCapacity).
func NewProfileSink(capacity int) *ProfileSink {
	if capacity <= 0 {
		capacity = DefaultProfileCapacity
	}
	return &ProfileSink{buf: make([]ProfileSnapshot, capacity)}
}

// Add records one finished profile, overwriting the oldest when full.
func (s *ProfileSink) Add(snap ProfileSnapshot) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.buf[s.next] = snap
	s.next++
	s.total++
	if snap.Slow {
		s.slow++
	}
	if s.next == len(s.buf) {
		s.next = 0
		s.full = true
	}
	s.mu.Unlock()
}

// Snapshots returns the retained profiles, oldest first.
func (s *ProfileSink) Snapshots() []ProfileSnapshot {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.full {
		out := make([]ProfileSnapshot, s.next)
		copy(out, s.buf[:s.next])
		return out
	}
	out := make([]ProfileSnapshot, 0, len(s.buf))
	out = append(out, s.buf[s.next:]...)
	out = append(out, s.buf[:s.next]...)
	return out
}

// Total returns the number of profiles ever recorded; Slow the number that
// crossed the slow-query threshold.
func (s *ProfileSink) Total() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Slow returns the number of recorded profiles flagged slow.
func (s *ProfileSink) Slow() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.slow
}

// Len returns the number of profiles currently retained.
func (s *ProfileSink) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.full {
		return len(s.buf)
	}
	return s.next
}

// Capacity returns the ring's depth (0 on nil).
func (s *ProfileSink) Capacity() int {
	if s == nil {
		return 0
	}
	return len(s.buf)
}
