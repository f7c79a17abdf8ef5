package obs

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Query profiles: one recorder per run. A QueryProfile holds the run's
// Theorem-1 bound trajectory and its EXPLAIN ANALYZE cost on one clock:
// one row per StepBatchCtx (batch size, cumulative retrieved, skips, wall
// time, elapsed time, bound after the step) plus the starting point, and
// where the wall time went once the schedule fanned out over the coalescing
// layer, the .wvls store, the MVCC overlay and the TCP shards. A nil
// *QueryProfile is a no-op: every method nil-checks, so recording sites are
// unconditional and the off path pays one nil check per batch.
//
// The row list is bounded by MaxProfileRows. When it is full, adjacent
// pairs of rows merge (batch, skips and wall time add up; retrieved,
// elapsed and bound take the later row's values) and each later row
// absorbs as many steps as a merged one holds, so every row stays the same
// width, the rows always sum to StepNanos, and the i-th step row always
// ends at the (i+1)-th bound point.
//
// Recording sites (all optional — a layer that is not in the stack simply
// contributes nothing): the server records plan source and build time, the
// scheduler records queue delay, the evaluation core records the rows, the
// coalescing store records requested/physical/coalesced key counts, the
// retry store records the keys it fetches again, the .wvls layout store
// records tier hits, the MVCC view records overlay-vs-base splits, and the
// shard coordinator records per-shard wall time, echoed remote serve time,
// response bytes and failures. All but the rows ride the context
// (WithProfile).

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

// StepProfile is one row of the drain: one StepBatchCtx, or adjacent ones
// merged once the row list filled (see MaxProfileRows).
type StepProfile struct {
	// Batch is the number of schedule entries the row's steps attempted.
	Batch int `json:"batch"`
	// Retrieved is the run's cumulative retrieval count after the row.
	Retrieved int `json:"retrieved"`
	// Skipped is the number of entries the row's steps skipped on failures.
	Skipped int `json:"skipped,omitempty"`
	// DurNanos is the wall time of the row's steps.
	DurNanos int64 `json:"dur_ns"`
	// Bound is the Theorem-1 bound after the row.
	Bound float64 `json:"bound,omitempty"`
}

// RunPoint is one point of a run's bound trajectory.
type RunPoint struct {
	// Retrieved is the run's retrieval count (schedule steps taken) at the
	// point.
	Retrieved int `json:"retrieved"`
	// Bound is the Theorem-1 worst-case penalty bound K^α·ι_p(ξ′) at the
	// point (0 once the run is exact).
	Bound float64 `json:"bound"`
	// Skipped is the number of entries skipped by failed retrievals so far.
	Skipped int `json:"skipped,omitempty"`
	// Elapsed is the time since the recorder started.
	Elapsed time.Duration `json:"elapsed_ns"`
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
	// Retried: keys the retry layer fetched again after a failed attempt,
	// summed over its re-attempts.
	Retried int64 `json:"retried,omitempty"`
	// LayoutCold: stored .wvls keys served, each from a block; BlockLoads
	// counts the block checksums behind them.
	LayoutCold int64 `json:"layout_cold,omitempty"`
	BlockLoads int64 `json:"block_loads,omitempty"`
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
	// RemoteNanos is the serve time the shard echoed back — their
	// difference is network + queueing.
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
	// StepNanos is the sum of the step rows' wall times — the retrieval
	// share of WallNanos.
	StepNanos int64          `json:"step_ns"`
	Plan      PlanProfile    `json:"plan"`
	Steps     []StepProfile  `json:"steps"`
	Tiers     TierProfile    `json:"tiers"`
	Shards    []ShardProfile `json:"shards,omitempty"`
	// Bound is the Theorem-1 bound trajectory: the starting point, then the
	// point each step row ends at (Bound[k+1] belongs to Steps[k]). Absent
	// when no run was attached.
	Bound []RunPoint `json:"bound,omitempty"`
	// Slow marks a profile that crossed the slow-query threshold.
	Slow bool `json:"slow,omitempty"`
	// Done reports the run drained its schedule; Finished that it stopped
	// advancing (drained, or closed by Finish). A live run is
	// Finished=false.
	Done     bool `json:"done"`
	Finished bool `json:"finished"`
}

// MaxProfileRows bounds a recorder's step rows. It is even, so a full list
// merges into whole pairs.
const MaxProfileRows = 512

// QueryProfile is one run's recorder. Methods are safe for concurrent use —
// the coordinator's per-shard goroutines record concurrently with each
// other, and /debug/profiles renders live runs. Every observed request holds
// one, so the struct stays small: the cost breakdown only a profiled run
// records lives behind costs, made on first use.
type QueryProfile struct {
	mu       sync.Mutex
	last     int32 // steps in the last step row
	shift    uint8 // a full step row holds 1<<shift steps; each merge adds one
	done     bool  // the run drained its schedule
	finished bool  // Finish was called
	id       string
	label    string
	start    time.Time
	wall     time.Duration
	// rows[0] is the starting point and rows[1:] the step rows, once a run
	// attached or recorded.
	rows  []profileRow
	costs *profileCosts
}

// profileRow is one row as the recorder keeps it. A step row's batch is
// the retrieval count it advanced past the row before, so it is not
// stored; counts are schedule positions, which fit int32 as the evaluation
// core's schedule indexes do. The skips of rows[0] are those before the run
// attached.
type profileRow struct {
	retrieved, skipped int32
	dur, elapsed       time.Duration
	bound              float64
}

// absorb merges the next row into q: skips and wall time add up;
// retrieved, elapsed and bound are the later row's (so batch adds up too).
func (q *profileRow) absorb(r profileRow) {
	q.skipped += r.skipped
	q.dur += r.dur
	q.retrieved, q.elapsed, q.bound = r.retrieved, r.elapsed, r.bound
}

// profileCosts is what a profiled run records beyond its rows.
type profileCosts struct {
	plan   PlanProfile
	tiers  TierProfile
	slow   bool
	shards map[int]*ShardProfile
	wire   map[string]*remoteTally
}

// remoteTally is the wire-level accounting a shard client records under its
// address — the client knows bytes and the shard-echoed serve time but not
// the shard index, so Snapshot merges these into the shard rows by address.
type remoteTally struct {
	bytes       int64
	remoteNanos int64
}

// NewQueryProfile starts a recorder for the run identified by id
// (conventionally the request ID) and label (e.g. the batch text). Its
// clock starts now.
func NewQueryProfile(id, label string) *QueryProfile {
	return &QueryProfile{id: id, label: label, start: time.Now()}
}

// costsLocked returns the cost breakdown, making it on first use.
func (p *QueryProfile) costsLocked() *profileCosts {
	if p.costs == nil {
		p.costs = &profileCosts{}
	}
	return p.costs
}

// SetPlan records how the plan was obtained and what the setup cost. The
// build and the setup ran up to now, mostly before the recorder started, so
// its clock moves back to where the build began: the wall time then covers
// every component the profile reports (rows recorded so far keep their
// place on the trajectory).
func (p *QueryProfile) SetPlan(source string, build, setup time.Duration, queries, terms int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	if begin := time.Now().Add(-(build + setup)); begin.Before(p.start) {
		d := p.start.Sub(begin)
		p.start = begin
		for i := range p.rows {
			p.rows[i].elapsed += d
		}
	}
	c := p.costsLocked()
	c.plan.Source = source
	c.plan.BuildNanos = build.Nanoseconds()
	c.plan.SetupNanos = setup.Nanoseconds()
	c.plan.Queries = queries
	c.plan.Terms = terms
	p.mu.Unlock()
}

// AddQueueDelay records time spent waiting for a scheduler worker.
func (p *QueryProfile) AddQueueDelay(d time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.costsLocked().plan.QueueNanos += d.Nanoseconds()
	p.mu.Unlock()
}

// Begin records the starting point of the bound trajectory: the run's
// retrieval count, bound and skip count when it attaches.
func (p *QueryProfile) Begin(retrieved int, bound float64, skipped int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	origin := profileRow{retrieved: int32(retrieved), skipped: int32(skipped), elapsed: time.Since(p.start), bound: bound}
	if len(p.rows) == 0 {
		p.rows = append(p.rows, origin)
	} else {
		p.rows[0] = origin
	}
	p.mu.Unlock()
}

// RecordStep records one StepBatchCtx: the cumulative retrieval count
// after the step, entries the step skipped, its wall time, the bound after
// it, and whether the run has now drained its schedule. Steps after Finish
// are ignored.
func (p *QueryProfile) RecordStep(retrieved, skipped int, d time.Duration, bound float64, done bool) {
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.finished {
		p.mu.Unlock()
		return
	}
	row := profileRow{retrieved: int32(retrieved), skipped: int32(skipped), dur: d, elapsed: time.Since(p.start), bound: bound}
	switch n := len(p.rows); {
	case n == 0:
		p.rows = append(p.rows, profileRow{}, row) // no Begin: start from zero
		p.last = 1
	case n > 1 && p.last < 1<<p.shift:
		p.rows[n-1].absorb(row)
		p.last++
	default:
		if n-1 == MaxProfileRows {
			// Every step row is full here: merge them in pairs.
			steps := p.rows[1:]
			for i := 0; i < len(steps)/2; i++ {
				steps[2*i].absorb(steps[2*i+1])
				steps[i] = steps[2*i]
			}
			p.rows = p.rows[:1+len(steps)/2]
			p.shift++
		}
		p.rows = append(p.rows, row)
		p.last = 1
	}
	p.done = done
	p.mu.Unlock()
}

// AddCoalesce records one coalescing-layer batch: keys requested, flight
// leads physically fetched, and joins served from another key's flight.
func (p *QueryProfile) AddCoalesce(requested, physical, coalesced int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	t := &p.costsLocked().tiers
	t.Requested += int64(requested)
	t.Physical += int64(physical)
	t.Coalesced += int64(coalesced)
	p.mu.Unlock()
}

// AddRetry records one re-attempt of the retry layer: the keys it fetches
// again.
func (p *QueryProfile) AddRetry(keys int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.costsLocked().tiers.Retried += int64(keys)
	p.mu.Unlock()
}

// AddLayout records one .wvls batch's stored-key hits and block loads.
func (p *QueryProfile) AddLayout(cold, blockLoads int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	t := &p.costsLocked().tiers
	t.LayoutCold += cold
	t.BlockLoads += blockLoads
	p.mu.Unlock()
}

// AddMVCC records one snapshot read's overlay-vs-base split.
func (p *QueryProfile) AddMVCC(layer, base int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	t := &p.costsLocked().tiers
	t.MVCCLayer += int64(layer)
	t.MVCCBase += int64(base)
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
	c := p.costsLocked()
	sp := c.shards[shard]
	if sp == nil {
		if c.shards == nil {
			c.shards = make(map[int]*ShardProfile)
		}
		sp = &ShardProfile{Shard: shard, Addr: addr}
		c.shards[shard] = sp
	}
	sp.Batches++
	sp.Keys += int64(keys)
	sp.WallNanos += wall.Nanoseconds()
	sp.Errors += int64(errs)
	sp.Degraded += int64(degraded)
	p.mu.Unlock()
}

// AddRemote records one wire response from the shard client at addr:
// response bytes received and the serve time the shard echoed back.
// Snapshot merges these into the shard rows by address.
func (p *QueryProfile) AddRemote(addr string, bytes int, remote time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	c := p.costsLocked()
	rt := c.wire[addr]
	if rt == nil {
		if c.wire == nil {
			c.wire = make(map[string]*remoteTally)
		}
		rt = &remoteTally{}
		c.wire[addr] = rt
	}
	rt.bytes += int64(bytes)
	rt.remoteNanos += remote.Nanoseconds()
	p.mu.Unlock()
}

// Finish stamps the run's total wall time and closes the recorder. The
// first Finish wins.
func (p *QueryProfile) Finish() {
	if p == nil {
		return
	}
	p.mu.Lock()
	if !p.finished {
		p.finished = true
		p.wall = time.Since(p.start)
	}
	p.mu.Unlock()
}

// MarkSlow flags the profile as having crossed the slow-query threshold.
func (p *QueryProfile) MarkSlow() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.costsLocked().slow = true
	p.mu.Unlock()
}

// Wall returns the finished wall time (0 while live).
func (p *QueryProfile) Wall() time.Duration {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.wall
}

// Snapshot returns a deep copy of the profile's current state, shard rows
// sorted by shard index. Safe while the run is still advancing.
func (p *QueryProfile) Snapshot() ProfileSnapshot {
	if p == nil {
		return ProfileSnapshot{}
	}
	p.mu.Lock()
	out := ProfileSnapshot{ID: p.id, Label: p.label, Start: p.start, WallNanos: p.wall.Nanoseconds(),
		Done: p.done, Finished: p.done || p.finished}
	out.Steps = make([]StepProfile, 0, max(len(p.rows)-1, 0))
	for k := 1; k < len(p.rows); k++ {
		r := p.rows[k]
		out.Steps = append(out.Steps, StepProfile{
			Batch:     int(r.retrieved - p.rows[k-1].retrieved),
			Retrieved: int(r.retrieved),
			Skipped:   int(r.skipped),
			DurNanos:  r.dur.Nanoseconds(),
			Bound:     r.bound,
		})
		out.StepNanos += r.dur.Nanoseconds()
	}
	out.Bound = p.boundLocked()
	if c := p.costs; c != nil {
		out.Plan, out.Tiers, out.Slow = c.plan, c.tiers, c.slow
		out.Shards = make([]ShardProfile, 0, len(c.shards))
		for _, sp := range c.shards {
			row := *sp
			if rt := c.wire[row.Addr]; rt != nil {
				row.Bytes = rt.bytes
				row.RemoteNanos = rt.remoteNanos
			}
			out.Shards = append(out.Shards, row)
		}
	}
	p.mu.Unlock()
	sort.Slice(out.Shards, func(i, j int) bool { return out.Shards[i].Shard < out.Shards[j].Shard })
	return out
}

// boundLocked renders the bound trajectory, one point per row. Nil before
// a run attaches.
func (p *QueryProfile) boundLocked() []RunPoint {
	if len(p.rows) == 0 {
		return nil
	}
	points := make([]RunPoint, len(p.rows))
	skipped := 0
	for k, r := range p.rows {
		skipped += int(r.skipped)
		points[k] = RunPoint{Retrieved: int(r.retrieved), Bound: r.bound, Skipped: skipped, Elapsed: r.elapsed}
	}
	return points
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

// DefaultProfileCapacity is the depth of the observer's run ring: the runs
// /debug/profiles lists.
const DefaultProfileCapacity = 64
