package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// minDrains is the least a timed pass of runSeconds may complete and still
// be reported (a shorter pass, as the smoke test runs, is held to the same
// rate). The issue's 200 per 20 s pass is 10 drains a second, 80 a run; 100
// is what client.drain_p90_ms needs. On a quiet host every workload clears
// 200 (layout_spill 250, the rest 320–950); layout_spill has fallen to 140
// with busy neighbours, which must not fail the run.
const minDrains = 100

// A timed run sets its workload up several times over: setup_s is the median
// of the samples, and only the last set of servers is kept for the pass. One
// sample a run moved by half between runs of the same code. Three samples at
// least; where a set-up is cheap (layout_spill 0.13 s, mvcc_rw 0.4 s) its
// relative jitter is largest, so more are taken, up to nine, while they fit
// in setupBudget.
const (
	setupMinSamples = 3
	setupMaxSamples = 9
	setupBudget     = 3 * time.Second
)

// adhocCheckEvery: ad-hoc answers are checked on a 1-in-10 sample (each
// check builds the plan again in this process); prepared answers all are.
const adhocCheckEvery = 10

// session is a workload with its servers up and its pool prepared.
type session struct {
	w       workload
	fx      *fixtures
	dep     *deployment
	c       *client
	handles []handle
	req     *requester
	wr      *writer
	setup   float64 // seconds: exec → last /prepare answered
}

// open sets the workload up once: servers started, pool prepared and
// checked against the coefficient band.
func (e *env) open(ctx context.Context, w workload, fx *fixtures) (*session, error) {
	e.workload = w.name
	var pool []string
	if w.pool > 0 {
		fams, mix := familiesOf(w)
		pool = newStmtStream(subSeed(e.seed, purposePool), fams, mix).Take(w.pool)
	}
	dep, c, handles, took, err := e.setUp(ctx, w, fx, pool)
	if err != nil {
		return nil, err
	}
	s := &session{w: w, fx: fx, dep: dep, c: c, handles: handles, setup: took.Seconds()}
	b := bandOf(w)
	for _, h := range s.handles {
		if h.distinct < b.lo || h.distinct > b.hi {
			s.close()
			return nil, fmt.Errorf("%s: %q has %d distinct coefficients, outside the %d–%d band the pool is generated for",
				w.name, h.stmt, h.distinct, b.lo, b.hi)
		}
	}
	s.req = &requester{handles: s.handles, adhoc: e.adhocStream(w)}
	if w.writer {
		s.wr = newWriter(s.dep.addr, e.seed)
	}
	return s, nil
}

func familiesOf(w workload) ([]family, []int) {
	switch {
	case w.fixture == "grid2d":
		return grid2dFamilies()
	case w.light:
		return temp5dLightFamilies()
	}
	return temp5dFamilies()
}

func bandOf(w workload) band {
	switch {
	case w.fixture == "grid2d":
		return grid2dBand
	case w.light:
		return lightBand
	}
	return temp5dBand
}

func (s *session) close() {
	s.c.close()
	if s.wr != nil {
		s.wr.c.close()
	}
	s.dep.stop()
}

// warmUp is the discarded pass before the measured one: the connection,
// the scheduler's workers, the runtime's heap target and (on layout_spill)
// the 64-block LRU settle within it; the first seconds of a fresh server
// drain 3–10 % slower than the rest.
func (s *session) warmUp(ctx context.Context) {
	s.runPass(ctx, warmUpLength, false)
}

const warmUpLength = 2 * time.Second

// adhocStream returns the workload's inline-batch stream, nil if it cycles
// prepared handles.
func (e *env) adhocStream(w workload) *stmtStream {
	if w.pool > 0 {
		return nil
	}
	fams, mix := familiesOf(w)
	return newStmtStream(subSeed(e.seed, purposeAdhoc), fams, mix)
}

func (s *session) stats(ctx context.Context) (statsReply, error) {
	var st statsReply
	err := s.c.getJSON(ctx, "/stats", &st)
	return st, err
}

// judge decodes a pass, checks every drain and returns the facts of the
// drains that passed. ref may be nil (mvcc_rw's answers move with ingest;
// its checks are the version order and the final COUNT).
func (s *session) judge(p pass, ref *reference, res *result) []drainFacts {
	b := bandOf(s.w)
	var good []drainFacts
	var lastVersion uint64
	for i, d := range p.drains {
		res.attempted++
		f := decodeDrain(d, s.w.eps)
		stmt := p.stmts[i]
		if f.fail == "" && (f.distinct < b.lo || f.distinct > b.hi) {
			f.fail = fmt.Sprintf("%d distinct coefficients, outside the generated band", f.distinct)
		}
		if f.fail == "" && f.version != nil {
			if *f.version < lastVersion {
				f.fail = fmt.Sprintf("version went back from %d to %d", lastVersion, *f.version)
			}
			lastVersion = *f.version
		}
		if f.fail == "" && ref != nil && (s.w.pool > 0 || i%adhocCheckEvery == 0) {
			if want, err := ref.expect(stmt); err != nil {
				f.fail = "reference: " + err.Error()
			} else {
				f.fail = checkAnswers(f.final, want)
			}
		}
		if f.fail != "" {
			res.fail("drain %d (%s): %s", i, stmt, f.fail)
			continue
		}
		good = append(good, f)
	}
	for i, in := range p.ingests {
		res.attempted++
		if in.err != nil {
			res.fail("ingest %d: %v", i, in.err)
		} else if in.applied != ingestTuples {
			res.fail("ingest %d: applied %d of %d tuples", i, in.applied, ingestTuples)
		}
	}
	return good
}

func column(facts []drainFacts, pick func(drainFacts) float64) []float64 {
	out := make([]float64, len(facts))
	for i, f := range facts {
		out[i] = pick(f)
	}
	return out
}

func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.Nanoseconds()) / 1e6
	}
	return out
}

// checkCount verifies, after the writer has stopped, that a full-domain
// COUNT() equals the loaded rows plus every acknowledged tuple.
func (s *session) checkCount(ctx context.Context, res *result) {
	res.attempted++
	var rep eventPayload
	body := []byte(`{"statements":"COUNT()","budget":0}`)
	if err := s.c.postJSON(ctx, "/query", body, &rep); err != nil {
		res.fail("final COUNT(): %v", err)
		return
	}
	want := float64(grid2dRows + s.wr.ackedTuples())
	if len(rep.Results) != 1 || !rep.Exact || math.Abs(rep.Results[0].Estimate-want) > 1e-6*want {
		res.fail("final COUNT() = %+v, want %v (rows + acknowledged tuples)", rep.Results, want)
	}
}

// runTimed is the end-to-end run: the workload is set up several times over
// (each timed, all but the last stopped again), then the last set of servers
// is warmed up and driven for the whole measured time with tracing off, then
// checked. It reports every end_to_end metric and, beside them, the client
// rows of the pass; every time is as measured.
func (e *env) runTimed(ctx context.Context, w workload, fx *fixtures, ref *reference, seconds float64) (*result, error) {
	res := newResult(w.name)
	var s *session
	var setups []float64
	for began := time.Now(); len(setups) < setupMinSamples || (len(setups) < setupMaxSamples && time.Since(began) < setupBudget); {
		if s != nil {
			s.close()
		}
		var err error
		if s, err = e.open(ctx, w, fx); err != nil {
			return nil, err
		}
		setups = append(setups, s.setup)
	}
	defer s.close()
	s.warmUp(ctx)
	p := s.runPass(ctx, time.Duration(seconds*float64(time.Second)), false)
	facts, err := s.finish(ctx, p, ref, res)
	if err != nil {
		return nil, err
	}
	if n := len(facts.good); n < int(minDrains*seconds/runSeconds) {
		return nil, fmt.Errorf("%s: only %d good drains in %.0f s: %v", w.name, n, seconds, res.failures)
	}
	res.set("setup_s", median(setups))
	res.set("rss_peak_mb", facts.rssMB)
	res.set("disk_bytes_per_coeff", facts.diskPerCoeff)
	clientMetrics(res, p, facts.good, int(s.c.dials.Load()))
	return res, nil
}

// passFacts is what finish learns from the servers after their pass.
type passFacts struct {
	good         []drainFacts
	rssMB        float64
	diskPerCoeff float64
}

// finish closes a timed pass on live servers: they must all still
// be up, memory is read before any of them is signalled, the post-pass
// checks run, and the drains are judged.
func (s *session) finish(ctx context.Context, p pass, ref *reference, res *result) (passFacts, error) {
	var f passFacts
	if err := s.dep.checkAlive(); err != nil {
		return f, err
	}
	st, err := s.stats(ctx)
	if err != nil {
		return f, err
	}
	if f.rssMB, err = s.dep.rssPeakMB(); err != nil {
		return f, err
	}
	disk, err := fileBytes(s.dep.served)
	if err != nil {
		return f, err
	}
	f.diskPerCoeff = float64(disk) / float64(st.Coefficients)
	if s.wr != nil {
		s.checkCount(ctx, res)
	}
	f.good = s.judge(p, ref, res)
	return f, nil
}

// runTraced is the per-layer run: one set-up, warm-up, an untraced half
// (client numbers and /stats deltas), a traced half with ?explain=1 (server
// phases; never timed), then the in-process layer calls on the same fixture
// and pool. It reports every per_layer metric and writes the trace file.
func (e *env) runTraced(ctx context.Context, w workload, fx *fixtures, ref *reference, seconds float64) (*result, error) {
	s, err := e.open(ctx, w, fx)
	if err != nil {
		return nil, err
	}
	defer s.close()
	res := newResult(w.name)
	for _, d := range perLayer {
		res.set(d.Name, 0)
	}
	for name, v := range fx.seconds {
		if fixtureUsedBy(name, w) {
			res.set(name, v)
		}
	}
	if s.wr != nil {
		s.wr.sampleLayers = true
	}
	s.warmUp(ctx)
	half := time.Duration(seconds / 2 * float64(time.Second))

	before, err := s.stats(ctx)
	if err != nil {
		return nil, err
	}
	plain := s.runPass(ctx, half, false)
	after, err := s.stats(ctx)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced := s.runPass(ctx, half, true)
	if err := s.dep.checkAlive(); err != nil {
		return nil, err
	}
	if s.wr != nil {
		s.checkCount(ctx, res)
	}
	plainFacts := s.judge(plain, ref, res)
	tracedFacts := s.judge(traced, ref, res)
	if len(plainFacts) == 0 || len(tracedFacts) == 0 {
		return nil, fmt.Errorf("%s: a half of the traced run completed no drain: %v", w.name, res.failures)
	}

	clientMetrics(res, plain, plainFacts, int(s.c.dials.Load()))
	statsMetrics(res, before, after, len(plain.drains), plain.ingests)
	explainMetrics(res, tracedFacts, plainFacts)
	if w.layout {
		if disk, err := fileBytes(s.dep.served); err == nil && after.Coefficients > 0 {
			res.set("layout.file_bytes_per_coeff", float64(disk)/float64(after.Coefficients))
		}
	}
	clientSpans(tr, traced)

	// The in-process rows are taken once the query server has stopped, so
	// nothing else wants the cores; the wire rows need the shards, so on
	// dist_2shard only the coordinator (the last process started) stops.
	if len(s.dep.shardAddrs) > 0 {
		s.c.close()
		s.dep.procs[len(s.dep.procs)-1].stop()
	} else {
		s.close()
	}
	if err := e.layerCalls(ctx, s, res, tr); err != nil {
		return nil, err
	}
	path := filepath.Join(e.outDir, "trace-"+w.name+".json")
	if err := tr.write(path, w.name, e.seed); err != nil {
		return nil, fmt.Errorf("writing %s: %w", path, err)
	}
	return res, nil
}

// fixtureUsedBy reports whether the workload serves from the fixture step a
// fixture.* row timed (an all-workloads run builds them all once).
func fixtureUsedBy(row string, w workload) bool {
	switch row {
	case "fixture.create_temp5d_s":
		return w.fixture == "temp5d"
	case "fixture.wvlayout_s":
		return w.layout
	default: // fixture.create_grid2d_s, ingest.wvload_s
		return w.fixture == "grid2d"
	}
}

// clientMetrics fills the client.* and client-sourced server.* rows from
// the untraced half.
func clientMetrics(res *result, p pass, facts []drainFacts, newConns int) {
	res.set("client.drains", float64(len(facts)))
	res.set("client.connections", float64(newConns))
	drains := column(facts, func(f drainFacts) float64 { return f.drainMS })
	res.set("client.ttfe_p50_ms", median(column(facts, func(f drainFacts) float64 { return f.ttfeMS })))
	res.set("client.tbound_p50_ms", median(column(facts, func(f drainFacts) float64 { return f.tboundMS })))
	res.set("client.drain_p50_ms", median(drains))
	if supported(0.9, len(drains)) {
		res.set("client.drain_p90_ms", quantile(drains, 0.9))
	}
	res.set("client.drains_per_s", float64(len(facts))/p.elapsed.Seconds())
	res.set("client.drain_p99_ms", tail(drains))
	res.set("client.ttfe_p99_ms", tail(column(facts, func(f drainFacts) float64 { return f.ttfeMS })))
	res.set("client.tbound_frac_p50", median(column(facts, func(f drainFacts) float64 { return f.tboundFrac })))
	res.set("server.events_per_drain", median(column(facts, func(f drainFacts) float64 { return float64(f.events) })))
	var bytes []float64
	for _, d := range p.drains {
		if d.err == nil {
			bytes = append(bytes, float64(d.bytes))
		}
	}
	res.set("server.bytes_per_drain", median(bytes))
	if len(p.ingests) > 0 {
		var lat, late []time.Duration
		for _, in := range p.ingests {
			if in.err == nil {
				lat = append(lat, in.latency)
				late = append(late, in.late)
			}
		}
		res.set("client.ingests", float64(len(lat)))
		res.set("client.ingest_p50_ms", median(msOf(lat)))
		res.set("client.ingest_p99_ms", tail(msOf(lat)))
		res.set("client.ingest_late_p99_ms", tail(msOf(late)))
	}
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// statsMetrics fills the rows that are /stats deltas over the untraced half.
func statsMetrics(res *result, a, b statsReply, drains int, ingests []ingestSample) {
	hits, misses := b.Prepared.Hits-a.Prepared.Hits, b.Prepared.Misses-a.Prepared.Misses
	res.set("registry.hit_ratio", ratio(hits, hits+misses))
	res.set("registry.evictions", float64(b.Prepared.Evictions-a.Prepared.Evictions))
	res.set("sched.slices_per_drain", ratio(b.Scheduler.Slices-a.Scheduler.Slices, b.Scheduler.Completed-a.Scheduler.Completed))
	res.set("sched.rejected", float64(b.Scheduler.Rejected-a.Scheduler.Rejected))
	res.set("storage.coalesce_ratio", ratio(b.Coalescing.Coalesced-a.Coalescing.Coalesced, b.Coalescing.Requests-a.Coalescing.Requests))
	res.set("storage.retrievals_per_drain", ratio(b.Retrievals-a.Retrievals, int64(drains)))
	if a.Layout != nil && b.Layout != nil {
		hot, cold := b.Layout.HotHits-a.Layout.HotHits, b.Layout.ColdHits-a.Layout.ColdHits
		loads := b.Layout.BlockLoads - a.Layout.BlockLoads
		res.set("layout.hot_hit_ratio", ratio(hot, hot+cold))
		res.set("layout.block_loads_per_drain", ratio(loads, int64(drains)))
		res.set("layout.block_load_ratio", ratio(loads, cold))
		res.set("layout.preads", float64(b.Layout.Preads-a.Layout.Preads))
	}
	if a.Mvcc != nil && b.Mvcc != nil {
		res.set("mvcc.compactions", float64(b.Mvcc.Compactions-a.Mvcc.Compactions))
		res.set("mvcc.delta_keys_per_tuple", ratio(b.Mvcc.AppliedKeys-a.Mvcc.AppliedKeys, b.Mvcc.AppliedTuples-a.Mvcc.AppliedTuples))
		var layers []float64
		for _, in := range ingests {
			if in.layers >= 0 {
				layers = append(layers, float64(in.layers))
			}
		}
		res.set("mvcc.layers_p50", median(layers))
	}
	if b.Dist != nil {
		var errs int64
		for _, h := range b.Dist.Health {
			errs += h.Errors
		}
		res.set("dist.errors", float64(errs))
	}
}

// explainMetrics fills the rows that are ?explain=1 medians over the traced
// half, and the tracing overhead against the untraced half.
func explainMetrics(res *result, traced, plain []drainFacts) {
	var build, step, queue, other, overhead, terms, serve, wire, layerRatio []float64
	var shardBytes, shardKeys int64
	for _, f := range traced {
		pr := f.profile
		if pr == nil {
			continue
		}
		build = append(build, float64(pr.Plan.BuildNS)/1e6)
		step = append(step, float64(pr.StepNS)/1e6)
		queue = append(queue, float64(pr.Plan.QueueNS)/1e3)
		// The profile clock starts after the plan is resolved, so build is
		// not inside wall; what is left after queue and steps is bounds,
		// render and flush.
		other = append(other, float64(pr.WallNS-pr.Plan.SetupNS-pr.Plan.QueueNS-pr.StepNS)/1e6)
		overhead = append(overhead, f.drainMS-float64(pr.WallNS+pr.Plan.BuildNS)/1e6)
		terms = append(terms, float64(pr.Plan.Terms))
		var batches, wallNS, remoteNS int64
		for _, sh := range pr.Shards {
			batches += sh.Batches
			wallNS += sh.WallNS
			remoteNS += sh.RemoteNS
			shardBytes += sh.Bytes
			shardKeys += sh.Keys
		}
		if batches > 0 {
			serve = append(serve, float64(remoteNS)/float64(batches)/1e3)
			wire = append(wire, float64(wallNS-remoteNS)/float64(batches)/1e3)
		}
		if n := pr.Tiers.MVCCLayer + pr.Tiers.MVCCBase; n > 0 {
			layerRatio = append(layerRatio, float64(pr.Tiers.MVCCLayer)/float64(n))
		}
	}
	res.set("plan.server_build_ms", median(build))
	res.set("plan.distinct_p50", median(terms))
	res.set("run.server_step_ms", median(step))
	res.set("sched.queue_us", median(queue))
	res.set("server.other_ms", median(other))
	res.set("server.http_overhead_ms", median(overhead))
	res.set("dist.shard_serve_us", median(serve))
	res.set("dist.wire_us", median(wire))
	res.set("dist.bytes_per_key", ratio(shardBytes, shardKeys))
	res.set("mvcc.layer_hit_ratio", median(layerRatio))
	drainOf := func(f drainFacts) float64 { return f.drainMS }
	if base := median(column(plain, drainOf)); base > 0 {
		res.set("obs.explain_overhead_ratio", median(column(traced, drainOf))/base)
	}
}

// clientSpans records the traced half: per request the client phases
// (write, headers, first event, each event, done) and, under them, the
// server phases laid out from the request's own profile.
func clientSpans(tr *tracer, p pass) {
	for i, d := range p.drains {
		if d.err != nil {
			continue
		}
		reqID := fmt.Sprintf("req-%04d", i)
		at := func(off time.Duration) time.Time { return d.start.Add(off) }
		root := tr.add(0, "client.request", reqID, d.start, at(d.end))
		tr.add(root, "client.write", reqID, d.start, at(d.wrote))
		tr.add(root, "client.headers", reqID, at(d.wrote), at(d.headers))
		prev := d.headers
		var profile *profilePayload
		for k, ev := range d.events {
			name := "client.event"
			switch {
			case ev.name == "profile":
				name = "client.profile_event"
				var pr profilePayload
				if json.Unmarshal(ev.data, &pr) == nil {
					profile = &pr
				}
			case ev.name == "done":
				name = "client.done"
			case k == 0:
				name = "client.first_event"
			}
			tr.add(root, name, reqID, at(prev), at(ev.at))
			prev = ev.at
		}
		if profile != nil {
			serverSpans(tr, root, reqID, d, profile)
		}
	}
}

// serverSpans lays the profile's phases inside the client's request span.
// The profile gives durations, and for steps the elapsed time at which each
// ended; build precedes the profile clock. The server span is anchored so
// that it ends when the client read `done`.
func serverSpans(tr *tracer, parent int, reqID string, d drain, pr *profilePayload) {
	var doneAt time.Duration
	for _, ev := range d.events {
		if ev.name == "done" {
			doneAt = ev.at
		}
	}
	t0 := tr.t0
	end := d.start.Add(doneAt).Sub(t0).Nanoseconds()
	clock := end - pr.WallNS // where the profile clock started
	srv := tr.addNS(parent, "server.request", reqID, clock-pr.Plan.BuildNS, end)
	tr.addNS(srv, "server.plan_build", reqID, clock-pr.Plan.BuildNS, clock)
	tr.addNS(srv, "server.run_setup", reqID, clock, clock+pr.Plan.SetupNS)
	tr.addNS(srv, "server.queue", reqID, clock+pr.Plan.SetupNS, clock+pr.Plan.SetupNS+pr.Plan.QueueNS)
	cursor := clock + pr.Plan.SetupNS + pr.Plan.QueueNS
	firstStep := cursor
	for k, st := range pr.Steps {
		stepEnd := cursor + st.DurNS
		if k+1 < len(pr.Bound) {
			stepEnd = clock + pr.Bound[k+1].ElapsedNS
		}
		tr.addNS(srv, "server.step", reqID, stepEnd-st.DurNS, stepEnd)
		cursor = stepEnd
	}
	// Shard rows are sums over the drain's sub-batches, not intervals: they
	// are placed from the first step so that their length, not their
	// position, is what the trace states.
	for _, sh := range pr.Shards {
		id := tr.addNS(srv, fmt.Sprintf("dist.shard%d", sh.Shard), reqID, firstStep, firstStep+sh.WallNS)
		tr.addNS(id, fmt.Sprintf("dist.shard%d.serve", sh.Shard), reqID, firstStep, firstStep+sh.RemoteNS)
	}
}

// writeResults writes the result table of an all-workloads run.
func writeResults(path string, seed int64, all []*result) error {
	type row struct {
		Workload  string            `json:"workload"`
		Attempted int               `json:"ops_attempted"`
		Failed    int               `json:"ops_failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	out := struct {
		Seed int64 `json:"seed"`
		Rows []row `json:"rows"`
	}{Seed: seed}
	for _, r := range all {
		out.Rows = append(out.Rows, row{r.workload, r.attempted, r.failed, r.metrics})
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
