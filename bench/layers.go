package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"repro"
	"repro/internal/codec"
	"repro/internal/dist"
	"repro/internal/server"
	"repro/internal/storage"
)

// The in-process rows of the traced run: timed calls into each package's
// functions on the live fixture and the very batches the servers were just
// driven with, on one goroutine, median over repeated calls. They run in
// this process once the query server has stopped (dist_2shard keeps its two
// shard servers: the wire rows need them), so nothing else wants the cores.
// This file is the only one that imports internal packages.

// layerInput is what the rows are measured on.
type layerInput struct {
	workload   string
	db         string // the .wvdb the workload's servers loaded
	layout     string // the .wvls, on layout_spill
	statements []string
	// ingestBodies are consecutive /ingest bodies from the writer's stream.
	ingestBodies [][]byte
	shardAddrs   []string
}

// layerStatements is how many batches the rows are measured over.
const layerStatements = 32

// layerCalls builds the input from the finished session and takes the rows.
func (e *env) layerCalls(ctx context.Context, s *session, res *result, tr *tracer) error {
	in := layerInput{workload: s.w.name, db: s.fx.temp5dDB, shardAddrs: s.dep.shardAddrs}
	if s.w.fixture == "grid2d" {
		in.db = s.fx.grid2dDB
	}
	if s.w.layout {
		in.layout = s.fx.temp5dLayout
	}
	for _, h := range s.handles {
		in.statements = append(in.statements, h.stmt)
	}
	if len(in.statements) == 0 {
		fams, mix := familiesOf(s.w)
		in.statements = newStmtStream(subSeed(e.seed, purposePool), fams, mix).Take(layerStatements)
	}
	if s.w.writer {
		stream := newIngestStream(e.seed)
		for i := 0; i < 24; i++ {
			body, _ := stream.Next()
			in.ingestBodies = append(in.ingestBodies, body)
		}
	}
	p := &layerProbe{res: res, tr: tr, aux: map[string]float64{}}
	start := sinceNS(tr.t0)
	p.root = tr.addNS(0, "layers", "", start, start)
	err := p.run(ctx, in)
	tr.spans[p.root-1].EndNS = sinceNS(tr.t0)
	return err
}

// layerProbe records rows into the traced run's result and one span per
// measured row under the "layers" span.
type layerProbe struct {
	res  *result
	tr   *tracer
	root int
	// aux keeps numbers later rows are derived from.
	aux map[string]float64
	// hash is the loaded file's hash store, kept beside the Database (which
	// does not expose its store) for storage.hash_ns_per_key.
	hash *storage.HashStore
}

// sliceKeys is the scheduler's default quantum (512 × the normal priority
// weight 2): the batch size the server's step loop retrieves at a time.
const sliceKeys = 1024

// Each row is the median of at least minCalls calls and as many more as fit
// in budget, capped at maxCalls; a call slower than budget/minCalls simply
// gets fewer (the layout drain, 45 ms, gets about 7).
const (
	minCalls = 5
	maxCalls = 200
	budget   = 300 * time.Millisecond
)

// sample is one measured row: median time per call, and mallocs and bytes
// per call averaged over the calls (both are deterministic per call here).
type sample struct {
	ns     float64
	allocs float64
	bytes  float64
}

// measure times fn repeatedly. setup, when non-nil, runs untimed before
// each call.
func (p *layerProbe) measure(name string, setup func(), fn func()) sample {
	start := sinceNS(p.tr.t0)
	began := time.Now()
	var times []float64
	var ms0, ms1 runtime.MemStats
	var allocs, bytes uint64
	for len(times) < minCalls || (len(times) < maxCalls && time.Since(began) < budget) {
		if setup != nil {
			setup()
		}
		runtime.ReadMemStats(&ms0)
		t := time.Now()
		fn()
		d := time.Since(t)
		runtime.ReadMemStats(&ms1)
		times = append(times, float64(d.Nanoseconds()))
		allocs += ms1.Mallocs - ms0.Mallocs
		bytes += ms1.TotalAlloc - ms0.TotalAlloc
	}
	p.tr.addNS(p.root, "layers."+name, "", start, sinceNS(p.tr.t0))
	sort.Float64s(times)
	n := float64(len(times))
	return sample{ns: times[len(times)/2], allocs: float64(allocs) / n, bytes: float64(bytes) / n}
}

func (p *layerProbe) set(name string, v float64) { p.res.set(name, v) }

func (p *layerProbe) run(ctx context.Context, in layerInput) error {
	// The store the workload's server reads: the loaded file in memory, the
	// layout file, the MVCC overlay, or the shard fan-out.
	var db *repro.Database
	var err error
	switch {
	case in.layout != "":
		if db, err = p.layout(in); err != nil {
			return err
		}
	case len(in.shardAddrs) > 0:
		if err := p.codecLoad(in, nil); err != nil {
			return err
		}
		if db, err = repro.OpenDistributed(in.shardAddrs, repro.DistOptions{}); err != nil {
			return err
		}
	default:
		if err := p.codecLoad(in, &db); err != nil {
			return err
		}
	}
	defer db.Close()

	batches := make([]repro.Batch, len(in.statements))
	plans := make([]*repro.Plan, len(in.statements))
	for i, stmt := range in.statements {
		if batches[i], err = repro.ParseBatch(db.Schema(), stmt); err != nil {
			return err
		}
		if plans[i], err = db.Plan(batches[i]); err != nil {
			return err
		}
	}
	if in.workload == "adhoc_mem" {
		if err := p.requestPath(db, in.statements, batches); err != nil {
			return err
		}
	}
	if in.workload == "mvcc_rw" {
		if err := p.mvcc(ctx, db, in); err != nil {
			return err
		}
	}
	if err := p.engine(ctx, db, batches, plans); err != nil {
		return err
	}
	nsPerKey := p.aux["drain_ns"] / p.aux["keys_per_drain"]
	switch in.workload {
	case "layout_spill":
		p.set("layout.ns_per_key", nsPerKey)
		p.set("layout.drain_allocs", p.aux["drain_allocs"])
	case "mvcc_rw":
		p.set("mvcc.overlay_ns_per_key", nsPerKey)
	case "dist_2shard":
		p.set("dist.drain_allocs", p.aux["drain_allocs"])
		if err := p.wire(ctx, in, plans); err != nil {
			return err
		}
	}
	return nil
}

// codecLoad times codec.Read of the .wvdb (what wvqd -db does before it
// listens) and, when dbOut is set, keeps the database for the other rows.
func (p *layerProbe) codecLoad(in layerInput, dbOut **repro.Database) error {
	f, err := os.Open(in.db)
	if err != nil {
		return err
	}
	defer f.Close()
	start := time.Now()
	snap, err := codec.Read(f)
	if err != nil {
		return fmt.Errorf("codec.Read %s: %w", in.db, err)
	}
	p.set("codec.load_s", time.Since(start).Seconds())
	p.tr.add(p.root, "layers.codec.load_s", "", start, time.Now())
	if dbOut == nil {
		return nil
	}
	p.hash = snap.Store()
	if _, err := f.Seek(0, 0); err != nil {
		return err
	}
	*dbOut, err = repro.LoadDatabase(f)
	return err
}

// layout opens the .wvls file the way wvqd -layout does.
func (p *layerProbe) layout(in layerInput) (*repro.Database, error) {
	var db *repro.Database
	var err error
	s := p.measure("layout.open_ms", func() {
		if db != nil {
			_ = db.Close() // only the last open is kept
		}
	}, func() { db, err = repro.OpenLayout(in.layout) })
	if err != nil {
		return nil, err
	}
	p.set("layout.open_ms", s.ns/1e6)
	return db, nil
}

// requestPath takes the rows of the ad-hoc request path before the engine:
// parse, canonicalise + fingerprint, registry miss, plan build.
func (p *layerProbe) requestPath(db *repro.Database, stmts []string, batches []repro.Batch) error {
	var err error
	i := 0
	next := func() int { i++; return i % len(stmts) }

	s := p.measure("ql.parse_us", nil, func() { _, err = repro.ParseBatch(db.Schema(), stmts[next()]) })
	if err != nil {
		return err
	}
	p.set("ql.parse_us", s.ns/1e3)
	p.set("ql.parse_allocs", s.allocs)

	s = p.measure("query.canon_us", nil, func() {
		b := batches[next()]
		b.Canonical()
		_ = b.Fingerprint()
	})
	p.set("query.canon_us", s.ns/1e3)

	s = p.measure("plan.build_us", nil, func() { _, err = db.Plan(batches[next()]) })
	if err != nil {
		return err
	}
	p.set("plan.build_us", s.ns/1e3)
	p.set("plan.build_allocs", s.allocs)
	p.set("plan.build_bytes", s.bytes)

	// A registry miss: canonicalise, claim a slot, build, warm the schedule.
	// Each call prepares a batch the registry has not seen; once the pool
	// has been through, the registry is emptied by removing the handles.
	reg := db.EnablePreparedPlans(0)
	var handles []string
	s = p.measure("registry.prepare_miss_us", func() {
		if len(handles) == len(batches) {
			for _, h := range handles {
				reg.Remove(h)
			}
			handles = handles[:0]
		}
	}, func() {
		pp, _, perr := db.Prepare(batches[len(handles)])
		if perr != nil {
			err = perr
			return
		}
		handles = append(handles, pp.Handle())
	})
	if err != nil {
		return err
	}
	p.set("registry.prepare_miss_us", s.ns/1e3)
	for _, h := range handles {
		reg.Remove(h)
	}
	return nil
}

// engine takes the rows every workload shares, on that workload's store:
// registry hit, schedule sort and cache hit, run construction, the step
// loop, and the bound tracking the SSE path adds per slice.
func (p *layerProbe) engine(ctx context.Context, db *repro.Database, batches []repro.Batch, plans []*repro.Plan) error {
	var err error
	i := 0
	next := func() int { i++; return i % len(plans) }
	pen := repro.SSE()

	pp, _, err := db.Prepare(batches[0])
	if err != nil {
		return err
	}
	reg, _ := db.PreparedPlans()
	s := p.measure("registry.lookup_ns", nil, func() {
		for k := 0; k < 1000; k++ { // 1 000 lookups per call: one is below the clock's resolution
			reg.Lookup(pp.Handle())
		}
	})
	p.set("registry.lookup_ns", s.ns/1000)

	// A cold schedule needs a plan no run has touched: build one, untimed.
	var fresh *repro.Plan
	s = p.measure("schedule.sort_us", func() { fresh, err = db.Plan(batches[next()]) }, func() { fresh.ScheduleFor(pen) })
	if err != nil {
		return err
	}
	p.set("schedule.sort_us", s.ns/1e3)
	for _, plan := range plans {
		plan.ScheduleFor(pen)
	}
	s = p.measure("schedule.cached_ns", nil, func() {
		for k := 0; k < 1000; k++ {
			plans[k%len(plans)].ScheduleFor(pen)
		}
	})
	p.set("schedule.cached_ns", s.ns/1000)

	s = p.measure("run.new_ns", nil, func() {
		for k := 0; k < 1000; k++ {
			db.NewRun(plans[k%len(plans)], pen)
		}
	})
	p.set("run.new_ns", s.ns/1000)

	var keys float64
	for _, plan := range plans {
		keys += float64(plan.DistinctCoefficients())
	}
	keys /= float64(len(plans))
	p.aux["keys_per_drain"] = keys
	s = p.measure("run.drain_us", nil, func() {
		run := db.NewRun(plans[next()], pen)
		for {
			n, serr := run.StepBatchCtx(ctx, sliceKeys)
			if serr != nil {
				err = serr
			}
			if n == 0 {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	p.set("run.drain_us", s.ns/1e3)
	p.set("run.drain_allocs", s.allocs)
	p.aux["drain_ns"], p.aux["drain_allocs"] = s.ns, s.allocs
	p.set("run.step_ns_per_coeff", s.ns/keys)

	if p.hash != nil {
		// The same keys the step loop asks for, one plan's schedule per
		// call and a different plan each time, straight at the hash store.
		dst := make([]float64, 0, 1<<14)
		var n float64
		s = p.measure("storage.hash_ns_per_key", nil, func() {
			order := plans[next()].ScheduleFor(pen).KeyOrder()
			n = float64(len(order))
			storage.BatchGet(p.hash, order, dst[:len(order)])
		})
		p.set("storage.hash_ns_per_key", s.ns/n)
		p.hash = nil
	}

	mass, err := db.CoefficientMass()
	if err != nil {
		return err
	}
	// bounds.init: the first QueryErrorBounds of a run builds its tracking
	// state; bounds.update: every later call, once per slice.
	var run *repro.Run
	s = p.measure("bounds.init_us", func() {
		run = db.NewRun(plans[next()], pen)
		_, _ = run.StepBatchCtx(ctx, sliceKeys) // errors surface in run.drain_us above
	}, func() { run.QueryErrorBounds(mass) })
	p.set("bounds.init_us", s.ns/1e3)
	var updates []float64
	for k := 0; k < 50; k++ {
		run = db.NewRun(plans[next()], pen)
		_, _ = run.StepBatchCtx(ctx, sliceKeys)
		run.QueryErrorBounds(mass)
		for {
			n, _ := run.StepBatchCtx(ctx, sliceKeys)
			if n == 0 {
				break
			}
			t := time.Now()
			run.QueryErrorBounds(mass)
			updates = append(updates, float64(time.Since(t).Nanoseconds()))
		}
	}
	if len(updates) > 0 {
		sort.Float64s(updates)
		p.set("bounds.update_ns_per_slice", updates[len(updates)/2])
	}
	return nil
}

// mvcc turns the loaded database into an MVCC store and takes the write
// path's rows: JSON decode of a 256-tuple body, Apply of it, and a
// compaction of eight layers. Auto-compaction is off so that the eight
// layers left at the end are what engine() then drains under.
func (p *layerProbe) mvcc(ctx context.Context, db *repro.Database, in layerInput) error {
	if len(in.ingestBodies) < 16 {
		return fmt.Errorf("mvcc rows need 16 ingest bodies, got %d", len(in.ingestBodies))
	}
	var reqs []server.IngestRequest
	k := 0
	var err error
	s := p.measure("ingest.json_decode_us", nil, func() {
		var req server.IngestRequest
		dec := json.NewDecoder(bytes.NewReader(in.ingestBodies[k%len(in.ingestBodies)]))
		dec.DisallowUnknownFields()
		if derr := dec.Decode(&req); derr != nil {
			err = derr
		}
		if k < len(in.ingestBodies) {
			reqs = append(reqs, req)
		}
		k++
	})
	if err != nil {
		return err
	}
	p.set("ingest.json_decode_us", s.ns/1e3)

	if err := db.EnableMVCC(repro.MVCCConfig{DisableAutoCompact: true}); err != nil {
		return err
	}
	apply := func(req server.IngestRequest) error {
		b := repro.NewWriteBatch()
		for _, t := range req.Tuples {
			b.Add(t.Coords, 1)
		}
		_, aerr := db.Apply(ctx, b)
		return aerr
	}
	k = 0
	s = p.measure("mvcc.apply_ms", nil, func() {
		if aerr := apply(reqs[k%len(reqs)]); aerr != nil {
			err = aerr
		}
		k++
	})
	if err != nil {
		return err
	}
	p.set("mvcc.apply_ms", s.ns/1e6)

	layers := func() {
		for j := 0; j < 8; j++ {
			if aerr := apply(reqs[j]); aerr != nil {
				err = aerr
			}
		}
	}
	s = p.measure("mvcc.compact_ms", layers, func() {
		if cerr := db.CompactNow(ctx); cerr != nil {
			err = cerr
		}
	})
	if err != nil {
		return err
	}
	p.set("mvcc.compact_ms", s.ns/1e6)
	layers()
	return err
}

// wire takes the rows of the shard protocol: one 512-key request and its
// response through a bytes.Buffer (framing alone), and the same 512 keys
// through the coordinator to the live shard processes.
func (p *layerProbe) wire(ctx context.Context, in layerInput, plans []*repro.Plan) error {
	keys := plans[0].ScheduleFor(repro.SSE()).KeyOrder()
	if len(keys) > 512 {
		keys = keys[:512]
	}
	sorted := append([]int(nil), keys...)
	sort.Ints(sorted) // request frames carry ascending keys
	values := make([]float64, len(sorted))
	for i := range values {
		values[i] = float64(i) + 0.5
	}
	var err error
	var buf bytes.Buffer
	s := p.measure("codec.frame_rt_ns", nil, func() {
		buf.Reset()
		if werr := codec.WriteBatchGetReqV(&buf, codec.MaxWireVersion, 1, "bench-000001", sorted); werr != nil {
			err = werr
		}
		fr, rerr := codec.ReadFrameVersion(&buf, codec.MaxWireVersion)
		if rerr != nil {
			err = rerr
			return
		}
		if _, derr := fr.BatchGetReq(); derr != nil {
			err = derr
		}
		buf.Reset()
		if werr := codec.WriteBatchGetRespV(&buf, codec.MaxWireVersion, 1, 1000, values, nil); werr != nil {
			err = werr
		}
		if fr, rerr = codec.ReadFrameVersion(&buf, codec.MaxWireVersion); rerr != nil {
			err = rerr
			return
		}
		if _, _, derr := fr.BatchGetResp(len(sorted)); derr != nil {
			err = derr
		}
	})
	if err != nil {
		return err
	}
	p.set("codec.frame_rt_ns", s.ns)
	p.set("codec.frame_allocs", s.allocs)

	var shards []storage.FallibleStore
	for _, addr := range in.shardAddrs {
		rs := dist.NewRemoteStore(addr, dist.ClientConfig{})
		defer rs.Close()
		shards = append(shards, rs)
	}
	coord, err := dist.NewCoordinator(shards, in.shardAddrs)
	if err != nil {
		return err
	}
	dst := make([]float64, len(keys))
	s = p.measure("dist.batchget_us_512", nil, func() {
		if gerr := coord.BatchGetCtx(ctx, keys, dst); gerr != nil {
			err = gerr
		}
	})
	if err != nil {
		return err
	}
	p.set("dist.batchget_us_512", s.ns/1e3)
	p.set("dist.batchget_allocs", s.allocs)
	return nil
}
