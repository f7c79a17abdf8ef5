package main

// The benchmark's metric tables: the end-to-end metrics with their bounds,
// and for every per-layer metric the package it belongs to, how it is taken,
// which end-to-end metric it should move on which workload, and where the
// layer is bypassed. BENCHMARK.json lists the same names, units and bounds
// (spec_test.go fails when it drifts; `go test -run Spec -update` rewrites
// it); the driver's contract gives it no room for the rest, so the
// interaction table lives here and, rendered, in README.md.

type move struct {
	Metric   string `json:"metric"`
	Workload string `json:"workload"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Per-layer only: the repo package the number belongs to, how it is
	// taken, what it should move, and the workloads that bypass the layer.
	Layer      string   `json:"layer,omitempty"`
	Source     string   `json:"source,omitempty"`
	Moves      []move   `json:"moves,omitempty"`
	BypassedOn []string `json:"bypassed_on,omitempty"`
}

// endToEnd are the gated metrics. Every workload reports every one of them
// and none is ever 0. The bound is the share of the parent's median by which
// a metric may worsen before it counts as a regression.
//
// What a user of a served wvqd sees first is time — first estimate, bound
// crossing, drain, drains a second — and none of those is gated: they are
// the client.* rows of perLayer. The issue's rule is that a gated metric's
// bound is at least twice the largest disagreement between five runs of the
// same code (`-aa 5`) and that only setup_s may need more than 0.15. On this
// shared 2-core VM the system is bound by memory latency, and that moves with
// the other tenants: a random-read kernel beside an arithmetic one changed
// 2.5-fold from second to second while the arithmetic one moved 5 %, and the
// same code's median drain moved 25–33 % between runs minutes apart (quartile
// spread 9–17 %), whatever estimator was tried (median, lower quantiles,
// quietest window, mean). No bound up to the contract's cap holds that, so
// the times are reported, as measured, beside the gate and not inside it;
// NOISE.json lists their spread next to the gated rows'. README "Noise".
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "disk_bytes_per_coeff", Unit: "B/coeff", Better: "lower", Bound: 0.01},
}

// ungatedTimes are the issue's end-to-end time metrics with the bounds it
// gave them: a timed run reports them too, and `-aa` records how far they
// are from holding those bounds.
var ungatedTimes = []metricDef{
	{Name: "client.ttfe_p50_ms", Bound: 0.10},
	{Name: "client.tbound_p50_ms", Bound: 0.10},
	{Name: "client.drain_p50_ms", Bound: 0.10},
	{Name: "client.drain_p90_ms", Bound: 0.15},
	{Name: "client.drains_per_s", Bound: 0.10},
}

// Sources of per-layer numbers.
const (
	srcClient  = "client"  // measured by the load generator: the untraced half of a traced run, the whole pass of a timed one
	srcStats   = "stats"   // GET /stats delta over the untraced half
	srcExplain = "explain" // ?explain=1 profile medians over the traced half
	srcProbe   = "probe"   // in-process call (layers.go) on the live fixture and pool, one goroutine, median
	srcFixture = "fixture" // timed while the fixtures were built
)

func mv(metric string, workloads ...string) []move {
	var out []move
	for _, w := range workloads {
		out = append(out, move{Metric: metric, Workload: w})
	}
	return out
}

func cat(ms ...[]move) []move {
	var out []move
	for _, m := range ms {
		out = append(out, m...)
	}
	return out
}

var (
	allWorkloads  = []string{"adhoc_mem", "prepared_mem", "layout_spill", "mvcc_rw", "dist_2shard"}
	notAdhoc      = []string{"prepared_mem", "layout_spill", "mvcc_rw", "dist_2shard"}
	notLayout     = []string{"adhoc_mem", "prepared_mem", "mvcc_rw", "dist_2shard"}
	notMVCC       = []string{"adhoc_mem", "prepared_mem", "layout_spill", "dist_2shard"}
	notDist       = []string{"adhoc_mem", "prepared_mem", "layout_spill", "mvcc_rw"}
	adhocTTFE     = mv("client.ttfe_p50_ms", "adhoc_mem")
	preparedDrain = mv("client.drain_p50_ms", "prepared_mem")
)

// perLayer are the ungated metrics, one or more per package a request
// crosses. A workload that bypasses a layer reports 0 for its rows.
var perLayer = []metricDef{
	// client: what the load generator measures at the socket. The first five
	// are the times a user sees (ungated: see endToEnd).
	{Name: "client.ttfe_p50_ms", Unit: "ms", Better: "lower", Layer: "client", Source: srcClient},
	{Name: "client.tbound_p50_ms", Unit: "ms", Better: "lower", Layer: "client", Source: srcClient},
	{Name: "client.drain_p50_ms", Unit: "ms", Better: "lower", Layer: "client", Source: srcClient},
	{Name: "client.drain_p90_ms", Unit: "ms", Better: "lower", Layer: "client", Source: srcClient},
	{Name: "client.drains_per_s", Unit: "1/s", Better: "higher", Layer: "client", Source: srcClient},
	{Name: "client.drains", Unit: "count", Better: "higher", Layer: "client", Source: srcClient},
	{Name: "client.drain_p99_ms", Unit: "ms", Better: "lower", Layer: "client", Source: srcClient},
	{Name: "client.ttfe_p99_ms", Unit: "ms", Better: "lower", Layer: "client", Source: srcClient},
	{Name: "client.tbound_frac_p50", Unit: "ratio", Better: "lower", Layer: "client", Source: srcClient},
	{Name: "client.connections", Unit: "count", Better: "lower", Layer: "client", Source: srcClient},
	{Name: "client.ingests", Unit: "count", Better: "higher", Layer: "client", Source: srcClient, BypassedOn: notMVCC},
	{Name: "client.ingest_p50_ms", Unit: "ms", Better: "lower", Layer: "client", Source: srcClient, BypassedOn: notMVCC},
	{Name: "client.ingest_p99_ms", Unit: "ms", Better: "lower", Layer: "client", Source: srcClient, BypassedOn: notMVCC},
	{Name: "client.ingest_late_p99_ms", Unit: "ms", Better: "lower", Layer: "client", Source: srcClient, BypassedOn: notMVCC},

	{Name: "ql.parse_us", Unit: "us", Better: "lower", Layer: "ql", Source: srcProbe, Moves: adhocTTFE, BypassedOn: notAdhoc},
	{Name: "ql.parse_allocs", Unit: "allocs", Better: "lower", Layer: "ql", Source: srcProbe, Moves: adhocTTFE, BypassedOn: notAdhoc},

	{Name: "query.canon_us", Unit: "us", Better: "lower", Layer: "query", Source: srcProbe, Moves: adhocTTFE, BypassedOn: notAdhoc},

	{Name: "registry.hit_ratio", Unit: "ratio", Better: "higher", Layer: "core", Source: srcStats, Moves: adhocTTFE},
	{Name: "registry.evictions", Unit: "count", Better: "lower", Layer: "core", Source: srcStats, Moves: adhocTTFE},
	{Name: "registry.lookup_ns", Unit: "ns", Better: "lower", Layer: "core", Source: srcProbe, Moves: mv("client.ttfe_p50_ms", "adhoc_mem", "prepared_mem")},
	{Name: "registry.prepare_miss_us", Unit: "us", Better: "lower", Layer: "core", Source: srcProbe, Moves: adhocTTFE, BypassedOn: notAdhoc},

	{Name: "plan.build_us", Unit: "us", Better: "lower", Layer: "core", Source: srcProbe, Moves: cat(adhocTTFE, mv("client.drains_per_s", "adhoc_mem")), BypassedOn: notAdhoc},
	{Name: "plan.build_allocs", Unit: "allocs", Better: "lower", Layer: "core", Source: srcProbe, Moves: cat(adhocTTFE, mv("rss_peak_mb", "adhoc_mem")), BypassedOn: notAdhoc},
	{Name: "plan.build_bytes", Unit: "B", Better: "lower", Layer: "core", Source: srcProbe, Moves: mv("rss_peak_mb", "adhoc_mem"), BypassedOn: notAdhoc},
	{Name: "plan.distinct_p50", Unit: "count", Better: "lower", Layer: "core", Source: srcExplain},
	{Name: "plan.server_build_ms", Unit: "ms", Better: "lower", Layer: "core", Source: srcExplain, Moves: cat(adhocTTFE, mv("client.drains_per_s", "adhoc_mem")), BypassedOn: notAdhoc},

	{Name: "schedule.sort_us", Unit: "us", Better: "lower", Layer: "core", Source: srcProbe, Moves: cat(adhocTTFE, mv("setup_s", "prepared_mem"))},
	{Name: "schedule.cached_ns", Unit: "ns", Better: "lower", Layer: "core", Source: srcProbe, Moves: mv("client.ttfe_p50_ms", "prepared_mem")},

	{Name: "bounds.init_us", Unit: "us", Better: "lower", Layer: "core", Source: srcProbe, Moves: mv("client.ttfe_p50_ms", "prepared_mem")},
	{Name: "bounds.update_ns_per_slice", Unit: "ns", Better: "lower", Layer: "core", Source: srcProbe, Moves: mv("client.tbound_p50_ms", "prepared_mem")},

	{Name: "run.new_ns", Unit: "ns", Better: "lower", Layer: "core", Source: srcProbe, Moves: mv("client.ttfe_p50_ms", "prepared_mem")},
	{Name: "run.drain_us", Unit: "us", Better: "lower", Layer: "core", Source: srcProbe, Moves: cat(preparedDrain, mv("client.tbound_p50_ms", "prepared_mem"))},
	{Name: "run.drain_allocs", Unit: "allocs", Better: "lower", Layer: "core", Source: srcProbe, Moves: preparedDrain},
	{Name: "run.step_ns_per_coeff", Unit: "ns", Better: "lower", Layer: "core", Source: srcProbe, Moves: cat(preparedDrain, mv("client.tbound_p50_ms", "prepared_mem"))},
	{Name: "run.server_step_ms", Unit: "ms", Better: "lower", Layer: "core", Source: srcExplain, Moves: preparedDrain},

	{Name: "sched.queue_us", Unit: "us", Better: "lower", Layer: "sched", Source: srcExplain, Moves: preparedDrain},
	{Name: "sched.slices_per_drain", Unit: "count", Better: "lower", Layer: "sched", Source: srcStats, Moves: preparedDrain},
	{Name: "sched.rejected", Unit: "count", Better: "lower", Layer: "sched", Source: srcStats},

	{Name: "storage.hash_ns_per_key", Unit: "ns", Better: "lower", Layer: "storage", Source: srcProbe, Moves: preparedDrain, BypassedOn: []string{"layout_spill", "dist_2shard"}},
	{Name: "storage.coalesce_ratio", Unit: "ratio", Better: "higher", Layer: "storage", Source: srcStats, Moves: preparedDrain},
	{Name: "storage.retrievals_per_drain", Unit: "count", Better: "lower", Layer: "storage", Source: srcStats, Moves: preparedDrain},

	{Name: "layout.ns_per_key", Unit: "ns", Better: "lower", Layer: "storage/layout", Source: srcProbe, Moves: mv("client.drain_p50_ms", "layout_spill"), BypassedOn: notLayout},
	{Name: "layout.hot_hit_ratio", Unit: "ratio", Better: "higher", Layer: "storage/layout", Source: srcStats, Moves: mv("client.drain_p50_ms", "layout_spill"), BypassedOn: notLayout},
	{Name: "layout.block_loads_per_drain", Unit: "count", Better: "lower", Layer: "storage/layout", Source: srcStats, Moves: cat(mv("client.drain_p50_ms", "layout_spill"), mv("client.tbound_p50_ms", "layout_spill")), BypassedOn: notLayout},
	{Name: "layout.block_load_ratio", Unit: "ratio", Better: "lower", Layer: "storage/layout", Source: srcStats, Moves: mv("client.drain_p50_ms", "layout_spill"), BypassedOn: notLayout},
	{Name: "layout.preads", Unit: "count", Better: "lower", Layer: "storage/layout", Source: srcStats, Moves: mv("client.drain_p50_ms", "layout_spill"), BypassedOn: notLayout},
	{Name: "layout.drain_allocs", Unit: "allocs", Better: "lower", Layer: "storage/layout", Source: srcProbe, Moves: mv("client.drain_p50_ms", "layout_spill"), BypassedOn: notLayout},
	{Name: "layout.open_ms", Unit: "ms", Better: "lower", Layer: "storage/layout", Source: srcProbe, Moves: mv("setup_s", "layout_spill"), BypassedOn: notLayout},
	{Name: "layout.file_bytes_per_coeff", Unit: "B/coeff", Better: "lower", Layer: "storage/layout", Source: srcFixture, Moves: mv("disk_bytes_per_coeff", "layout_spill"), BypassedOn: notLayout},

	{Name: "mvcc.apply_ms", Unit: "ms", Better: "lower", Layer: "mvcc", Source: srcProbe, Moves: mv("client.ingest_p50_ms", "mvcc_rw"), BypassedOn: notMVCC},
	{Name: "mvcc.delta_keys_per_tuple", Unit: "count", Better: "lower", Layer: "mvcc", Source: srcStats, Moves: cat(mv("client.ingest_p50_ms", "mvcc_rw"), mv("rss_peak_mb", "mvcc_rw")), BypassedOn: notMVCC},
	{Name: "mvcc.compact_ms", Unit: "ms", Better: "lower", Layer: "mvcc", Source: srcProbe, Moves: mv("client.drain_p90_ms", "mvcc_rw"), BypassedOn: notMVCC},
	{Name: "mvcc.compactions", Unit: "count", Better: "higher", Layer: "mvcc", Source: srcStats, Moves: mv("client.drain_p90_ms", "mvcc_rw"), BypassedOn: notMVCC},
	{Name: "mvcc.layers_p50", Unit: "count", Better: "lower", Layer: "mvcc", Source: srcStats, Moves: mv("client.drain_p50_ms", "mvcc_rw"), BypassedOn: notMVCC},
	{Name: "mvcc.overlay_ns_per_key", Unit: "ns", Better: "lower", Layer: "mvcc", Source: srcProbe, Moves: mv("client.drain_p50_ms", "mvcc_rw"), BypassedOn: notMVCC},
	{Name: "mvcc.layer_hit_ratio", Unit: "ratio", Better: "lower", Layer: "mvcc", Source: srcExplain, Moves: mv("client.drain_p50_ms", "mvcc_rw"), BypassedOn: notMVCC},

	{Name: "ingest.wvload_s", Unit: "s", Better: "lower", Layer: "ingest", Source: srcFixture, BypassedOn: notMVCC},
	{Name: "ingest.json_decode_us", Unit: "us", Better: "lower", Layer: "ingest", Source: srcProbe, Moves: mv("client.ingest_p50_ms", "mvcc_rw"), BypassedOn: notMVCC},

	{Name: "codec.load_s", Unit: "s", Better: "lower", Layer: "codec", Source: srcProbe, Moves: mv("setup_s", "adhoc_mem", "prepared_mem", "dist_2shard"), BypassedOn: []string{"layout_spill"}},
	{Name: "codec.frame_rt_ns", Unit: "ns", Better: "lower", Layer: "codec", Source: srcProbe, Moves: mv("client.drain_p50_ms", "dist_2shard"), BypassedOn: notDist},
	{Name: "codec.frame_allocs", Unit: "allocs", Better: "lower", Layer: "codec", Source: srcProbe, Moves: mv("client.drain_p50_ms", "dist_2shard"), BypassedOn: notDist},

	{Name: "dist.batchget_us_512", Unit: "us", Better: "lower", Layer: "dist", Source: srcProbe, Moves: mv("client.drain_p50_ms", "dist_2shard"), BypassedOn: notDist},
	{Name: "dist.batchget_allocs", Unit: "allocs", Better: "lower", Layer: "dist", Source: srcProbe, Moves: mv("rss_peak_mb", "dist_2shard"), BypassedOn: notDist},
	{Name: "dist.drain_allocs", Unit: "allocs", Better: "lower", Layer: "dist", Source: srcProbe, Moves: cat(mv("client.drain_p50_ms", "dist_2shard"), mv("rss_peak_mb", "dist_2shard")), BypassedOn: notDist},
	{Name: "dist.shard_serve_us", Unit: "us", Better: "lower", Layer: "dist", Source: srcExplain, Moves: mv("client.drain_p50_ms", "dist_2shard"), BypassedOn: notDist},
	{Name: "dist.wire_us", Unit: "us", Better: "lower", Layer: "dist", Source: srcExplain, Moves: cat(mv("client.drain_p50_ms", "dist_2shard"), mv("client.ttfe_p50_ms", "dist_2shard")), BypassedOn: notDist},
	{Name: "dist.bytes_per_key", Unit: "B", Better: "lower", Layer: "dist", Source: srcExplain, Moves: mv("client.drain_p50_ms", "dist_2shard"), BypassedOn: notDist},
	{Name: "dist.errors", Unit: "count", Better: "lower", Layer: "dist", Source: srcStats, BypassedOn: notDist},

	{Name: "server.other_ms", Unit: "ms", Better: "lower", Layer: "server", Source: srcExplain, Moves: mv("client.drain_p50_ms", allWorkloads...)},
	{Name: "server.events_per_drain", Unit: "count", Better: "higher", Layer: "server", Source: srcClient, Moves: mv("client.tbound_p50_ms", allWorkloads...)},
	{Name: "server.bytes_per_drain", Unit: "B", Better: "lower", Layer: "server", Source: srcClient, Moves: mv("client.drain_p50_ms", allWorkloads...)},
	{Name: "server.http_overhead_ms", Unit: "ms", Better: "lower", Layer: "server", Source: srcExplain, Moves: mv("client.drain_p50_ms", allWorkloads...)},

	{Name: "obs.explain_overhead_ratio", Unit: "ratio", Better: "lower", Layer: "obs", Source: srcExplain},

	{Name: "fixture.create_temp5d_s", Unit: "s", Better: "lower", Layer: "fixture", Source: srcFixture, BypassedOn: []string{"mvcc_rw"}},
	{Name: "fixture.create_grid2d_s", Unit: "s", Better: "lower", Layer: "fixture", Source: srcFixture, BypassedOn: notMVCC},
	{Name: "fixture.wvlayout_s", Unit: "s", Better: "lower", Layer: "fixture", Source: srcFixture, Moves: mv("disk_bytes_per_coeff", "layout_spill"), BypassedOn: notLayout},
}

var metricByName = func() map[string]metricDef {
	m := map[string]metricDef{}
	for _, d := range endToEnd {
		m[d.Name] = d
	}
	for _, d := range perLayer {
		m[d.Name] = d
	}
	return m
}()

// runSeconds is how long one run measures when the driver does not say.
const runSeconds = 8
