package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// workload is one of the five fixed traffic mixes. Names are fixed: later
// issues cite them.
type workload struct {
	name string
	why  string
	// fixture is "temp5d" or "grid2d"; layout adds the .wvls conversion.
	fixture string
	layout  bool
	// light selects the lighter batch family (see temp5dLightFamilies).
	light bool
	// pool is the number of /prepare'd handles the reader cycles; 0 means
	// every request is an inline batch with fresh constants.
	pool int
	// writer adds the open-loop /ingest connection.
	writer bool
	// eps is the time-to-bound threshold of the fixture (see tboundEps).
	eps float64
	// launch starts the workload's server processes and returns the HTTP
	// address of the one that answers queries.
	launch func(e *env, fx *fixtures) (*deployment, error)
}

// tboundEps: tbound is the first event whose largest Theorem-1 bound is
// ≤ eps × the largest final answer. One constant per fixture, calibrated
// once (seeds 1–3) so the median crossing sits at 40–60 % of the retrievals
// (client.tbound_frac_p50 reports where it sits now), then frozen: the
// Theorem-1 bound is a worst case over all data with the same coefficient
// mass, tens of times the answer until late in a drain, so an eps near 1
// would cross only at `done` and measure drain time twice. Calibration, on
// the 8-cell pools: temp5d eps 100 → 43 %, 60 → 49–52 %, 30 → 68 %;
// grid2d eps 5 → 44 %, 3 → 55 %. layout_spill's lighter pool has three
// events per drain (41 %, 82 %, done) and crosses at the second.
const (
	tboundEpsTemp5d = 60
	tboundEpsGrid2d = 4
)

var workloads = []workload{
	{
		name:    "adhoc_mem",
		why:     "temp5d in memory, every request an inline batch with fresh constants: parse, canonicalise, registry miss and plan build do most of the work",
		fixture: "temp5d", eps: tboundEpsTemp5d, launch: launchMem,
	},
	{
		name:    "prepared_mem",
		why:     "same server, requests cycle 32 prepared handles: parse and build do nothing, bounds init, step loop, sched and SSE render do everything",
		fixture: "temp5d", pool: 32, eps: tboundEpsTemp5d, launch: launchMem,
	},
	{
		name:    "layout_spill",
		why:     "wvqd -layout on the .wvls file, same 32 handles: cold keys span far more than the 64-block LRU, so the layout tiers dominate (page-cache warm)",
		fixture: "temp5d", layout: true, light: true, pool: 32, eps: tboundEpsTemp5d, launch: launchLayout,
	},
	{
		name:    "mvcc_rw",
		why:     "wvqd -mvcc on grid2d: a reader cycles 16 handles while an open-loop writer ingests 256 tuples every 200 ms, so layers build and the compactor runs",
		fixture: "grid2d", pool: 16, writer: true, eps: tboundEpsGrid2d, launch: launchMVCC,
	},
	{
		name:    "dist_2shard",
		why:     "two shard processes plus a coordinator, same 32 handles: codec frames and dist fan-out carry every key; on 2 cores it measures overhead",
		fixture: "temp5d", pool: 32, eps: tboundEpsTemp5d, launch: launchDist,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// deployment is the set of processes serving one workload.
type deployment struct {
	addr  string  // HTTP address answering queries
	procs []*proc // every server process, for VmHWM
	// served are the files the workload serves from (disk_bytes_per_coeff).
	served []string
	// shardAddrs is set on dist_2shard, for the in-process wire rows.
	shardAddrs []string
}

func (d *deployment) stop() {
	for i := len(d.procs) - 1; i >= 0; i-- {
		d.procs[i].stop()
	}
}

// checkAlive returns an error naming the first server that has exited: a
// server that dies mid-pass fails the run rather than shortening it.
func (d *deployment) checkAlive() error {
	for _, p := range d.procs {
		if !p.alive() {
			return fmt.Errorf("%s exited during the run (%v); see %s", p.name, p.waitErr, p.logPath)
		}
	}
	return nil
}

// rssPeakMB sums VmHWM over the deployment's processes.
func (d *deployment) rssPeakMB() (float64, error) {
	var kb int64
	for _, p := range d.procs {
		v, err := p.hwmKB()
		if err != nil {
			return 0, err
		}
		kb += v
	}
	return float64(kb) / 1024, nil
}

// Load shape: the host has 2 cores, so the query server runs with
// GOMAXPROCS=2, each shard server with GOMAXPROCS=1 and this load generator
// with GOMAXPROCS=2.
const (
	serverProcs    = 2
	shardProcs     = 1
	generatorProcs = 2
)

func (e *env) startHTTP(name string, args ...string) (*deployment, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	p, err := e.procs.start(name, e.bin("wvqd"), serverProcs, e.logPath(name), append(args, "-addr", addr)...)
	if err != nil {
		return nil, err
	}
	return &deployment{addr: addr, procs: []*proc{p}}, nil
}

// launchMem sizes the plan registry at the pool's 32 instead of the default
// 256: an ad-hoc server's steady state is a full registry where every miss
// evicts, and a 2 s pass at 33 requests/s would never fill 256 slots.
func launchMem(e *env, fx *fixtures) (*deployment, error) {
	d, err := e.startHTTP("wvqd", "-db", fx.temp5dDB, "-plan-cache", "32")
	if err == nil {
		d.served = []string{fx.temp5dDB}
	}
	return d, err
}

func launchLayout(e *env, fx *fixtures) (*deployment, error) {
	d, err := e.startHTTP("wvqd", "-layout", fx.temp5dLayout)
	if err == nil {
		d.served = []string{fx.temp5dLayout}
	}
	return d, err
}

func launchMVCC(e *env, fx *fixtures) (*deployment, error) {
	d, err := e.startHTTP("wvqd", "-db", fx.grid2dDB, "-mvcc")
	if err == nil {
		d.served = []string{fx.grid2dDB}
	}
	return d, err
}

// launchDist starts both shard servers at once (as a deployment would),
// waits for both to listen, then starts the coordinator, which dials them
// at open and fails fast if either is missing.
func launchDist(e *env, fx *fixtures) (*deployment, error) {
	var shards []*proc
	var addrs []string
	for i := 0; i < 2; i++ {
		addr, err := freePort()
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("shard%d", i)
		p, err := e.procs.start(name, e.bin("wvqd"), shardProcs, e.logPath(name),
			"-db", fx.temp5dDB, "-shard-listen", addr, "-shard-index", fmt.Sprint(i), "-shard-count", "2")
		if err != nil {
			return nil, err
		}
		shards = append(shards, p)
		addrs = append(addrs, addr)
	}
	for i, p := range shards {
		if err := waitTCP(p, addrs[i], startTimeout); err != nil {
			return nil, err
		}
	}
	// The coordinator runs with the retry layer, as a deployment over a
	// network would. It also keeps a rare fault out of the pass: after a
	// request finishes, dist.RemoteStore's cancellation watcher can still be
	// runnable, see the finished task's cancelled context, and set a past
	// deadline on the connection it has already handed back to the pool, so
	// the next request's read times out and the drain comes back degraded
	// (seen once in ~30 000 drains, in a phase where the host stalled
	// goroutines for milliseconds). dist.errors counts what the retries
	// absorbed.
	d, err := e.startHTTP("coordinator", "-shards", strings.Join(addrs, ","), "-retry-attempts", "3")
	if err != nil {
		return nil, err
	}
	d.procs = append(shards, d.procs...)
	d.served = []string{fx.temp5dDB}
	d.shardAddrs = addrs
	return d, nil
}

const startTimeout = 60 * time.Second

// handle is one prepared batch of the pool.
type handle struct {
	stmt     string
	id       string
	distinct int
}

// prepareReply is the POST /prepare reply.
type prepareReply struct {
	Handle   string `json:"handle"`
	Distinct int    `json:"distinct"`
}

// setUp starts the workload's servers, waits for /healthz and prepares the
// pool; the returned duration is exec → last /prepare answered, which is
// what setup_s reports.
func (e *env) setUp(ctx context.Context, w workload, fx *fixtures, pool []string) (*deployment, *client, []handle, time.Duration, error) {
	start := time.Now()
	d, err := w.launch(e, fx)
	if err != nil {
		return nil, nil, nil, 0, err
	}
	front := d.procs[len(d.procs)-1]
	if err := waitTCP(front, d.addr, startTimeout); err != nil {
		return nil, nil, nil, 0, err
	}
	c := newClient(d.addr)
	for {
		if err := c.getJSON(ctx, "/healthz", nil); err == nil {
			break
		} else if !front.alive() || time.Since(start) > startTimeout {
			return nil, nil, nil, 0, fmt.Errorf("%s: /healthz never answered: %w", w.name, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	handles := make([]handle, len(pool))
	for i, stmt := range pool {
		body, _ := json.Marshal(map[string]string{"statements": stmt}) // a string map cannot fail to marshal
		var rep prepareReply
		if err := c.postJSON(ctx, "/prepare", body, &rep); err != nil {
			return nil, nil, nil, 0, fmt.Errorf("%s: preparing %q: %w", w.name, stmt, err)
		}
		handles[i] = handle{stmt: stmt, id: rep.Handle, distinct: rep.Distinct}
	}
	return d, c, handles, time.Since(start), nil
}

// requester yields request bodies — the pool's handles in turn, or the next
// inline batch — and remembers the statement behind each, for checking.
type requester struct {
	handles []handle
	adhoc   *stmtStream
	stmts   []string // statement of request i
}

func (r *requester) next() []byte {
	var req map[string]any
	if len(r.handles) > 0 {
		h := r.handles[len(r.stmts)%len(r.handles)]
		r.stmts = append(r.stmts, h.stmt)
		req = map[string]any{"handle": h.id, "budget": 0}
	} else {
		stmt := r.adhoc.Next()
		r.stmts = append(r.stmts, stmt)
		req = map[string]any{"statements": stmt, "budget": 0}
	}
	body, _ := json.Marshal(req) // strings and ints cannot fail to marshal
	return body
}

// pass is one closed-loop run of the reader for a fixed time, with the
// writer (if any) running beside it.
type pass struct {
	drains  []drain
	stmts   []string
	ingests []ingestSample
	elapsed time.Duration
}

// runPass drives the reader: the next request is sent only after the
// previous `done` (and EOF) has been read. A drain in flight when the time
// is up is finished and counted, and elapsed runs to its end.
func (s *session) runPass(ctx context.Context, length time.Duration, explain bool) pass {
	c, r, wr := s.c, s.req, s.wr
	first := len(r.stmts)
	var wg sync.WaitGroup
	stopWriter := make(chan struct{})
	if wr != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wr.run(ctx, stopWriter)
		}()
	}
	var p pass
	start := time.Now()
	for time.Since(start) < length {
		d := c.stream(ctx, r.next(), explain)
		p.drains = append(p.drains, d)
		if d.err != nil {
			if ctx.Err() != nil {
				break
			}
			time.Sleep(5 * time.Millisecond) // a dead server must not spin the loop
		}
	}
	p.elapsed = time.Since(start)
	close(stopWriter)
	wg.Wait()
	if wr != nil {
		p.ingests = wr.take()
	}
	p.stmts = r.stmts[first:]
	return p
}

// statsReply is the part of GET /stats the harness reads.
type statsReply struct {
	Coefficients int   `json:"coefficients"`
	Retrievals   int64 `json:"retrievals"`
	Scheduler    struct {
		Rejected  int64 `json:"rejected"`
		Completed int64 `json:"completed"`
		Slices    int64 `json:"slices"`
	} `json:"scheduler"`
	Coalescing struct {
		Requests  int64 `json:"requests"`
		Coalesced int64 `json:"coalesced"`
	} `json:"coalescing"`
	Prepared struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Evictions int64 `json:"evictions"`
	} `json:"prepared"`
	Dist *struct {
		Health []struct {
			Errors int64 `json:"errors"`
		} `json:"health"`
	} `json:"dist"`
	Layout *struct {
		HotHits    int64 `json:"hot_hits"`
		ColdHits   int64 `json:"cold_hits"`
		BlockLoads int64 `json:"block_loads"`
		Preads     int64 `json:"preads"`
	} `json:"layout"`
	Mvcc *struct {
		Layers        int   `json:"layers"`
		AppliedTuples int64 `json:"applied_tuples"`
		AppliedKeys   int64 `json:"applied_keys"`
		Compactions   int64 `json:"compactions"`
	} `json:"mvcc"`
}

func fileBytes(paths []string) (int64, error) {
	var total int64
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			return 0, err
		}
		total += st.Size()
	}
	return total, nil
}

// logPath names a server's log; every start gets its own file, so the log
// of the set-up that failed is still there after the run.
func (e *env) logPath(name string) string {
	e.started++
	return filepath.Join(e.outDir, fmt.Sprintf("%s-%s-%d.log", e.workload, name, e.started))
}
