// Command wvqbench replays a mixed prepared/ad-hoc query workload against an
// in-process server handler and reports per-class latency percentiles and
// throughput:
//
//	wvqbench -streams 1024 -requests 16 -out BENCH_load.json
//
// The driver builds a synthetic database and replays two workload classes
// against one server, each at -streams concurrency: an ad-hoc class (every
// request submits a freshly drawn inline batch, so every request pays plan
// construction — the pre-registry request path) and a prepared class (streams
// share -prepared-batches batches registered via POST /prepare and execute
// handles). The classes run as separate measured phases — on one machine a
// concurrent mix shares one scheduler queue, and queue wait would blur the
// attribution the benchmark exists to make. The ad-hoc phase runs first, so
// its registry churn realistically evicts the prepared plans; prepared
// streams recover through the 404 → re-prepare path, which is counted.
// Requests go through the full HTTP surface (httptest recorders, no
// sockets), so parse, admission, plan registration and response rendering
// are all on the measured path while network jitter is not.
//
// 429 rejections are retried with backoff and counted; a prepared stream
// whose plan was evicted re-prepares (counted) and retries. The report lands
// as JSON in -out: per-class p50/p99 latency and qps, the registry's
// hit/miss/eviction counters, and the honest-notes list every BENCH_*.json
// in this repo carries.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/sched"
	"repro/internal/server"
)

type config struct {
	Streams         int    `json:"streams_per_class"`
	Requests        int    `json:"requests_per_stream"`
	PreparedBatches int    `json:"prepared_batches"`
	BatchQueries    int    `json:"batch_queries"`
	Budget          int    `json:"budget"`
	PlanCache       int    `json:"plan_cache"`
	Tuples          int    `json:"tuples"`
	Schema          string `json:"schema"`
	Filter          string `json:"filter"`
	Seed            int64  `json:"seed"`
	GOMAXPROCS      int    `json:"gomaxprocs"`
}

// classReport is one workload class's measured outcome.
type classReport struct {
	Streams    int     `json:"streams"`
	Requests   int     `json:"requests"`
	P50Ms      float64 `json:"p50_ms"`
	P99Ms      float64 `json:"p99_ms"`
	QPS        float64 `json:"qps"`
	Retries429 int64   `json:"retries_429"`
	Reprepares int64   `json:"reprepares,omitempty"`
	Errors     int64   `json:"errors"`
}

type report struct {
	Bench     string                  `json:"bench"`
	Config    config                  `json:"config"`
	ElapsedMs float64                 `json:"elapsed_ms"`
	Prepared  classReport             `json:"prepared"`
	Adhoc     classReport             `json:"adhoc"`
	Registry  repro.PlanRegistryStats `json:"registry"`
	Notes     []string                `json:"notes"`
}

func main() {
	var (
		streams   = flag.Int("streams", 1024, "concurrent client streams per class")
		requests  = flag.Int("requests", 8, "requests per stream")
		prepN     = flag.Int("prepared-batches", 32, "distinct batches shared by the prepared class")
		queries   = flag.Int("batch-queries", 32, "range-sum queries per batch")
		budget    = flag.Int("budget", 32, "retrieval budget per request (progressive)")
		planCache = flag.Int("plan-cache", 0, "prepared-plan registry capacity (0 = default)")
		tuples    = flag.Int("tuples", 4096, "synthetic tuples in the served database")
		maxActive = flag.Int("max-active", 256, "scheduler run-table size")
		maxQueued = flag.Int("max-queued", 4096, "scheduler waiting-queue bound")
		seed      = flag.Int64("seed", 1, "workload generator seed")
		out       = flag.String("out", "BENCH_load.json", "report output path")
	)
	flag.Parse()
	if err := run(config{
		Streams:         *streams,
		Requests:        *requests,
		PreparedBatches: *prepN,
		BatchQueries:    *queries,
		Budget:          *budget,
		PlanCache:       *planCache,
		Tuples:          *tuples,
		Seed:            *seed,
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
	}, *maxActive, *maxQueued, *out); err != nil {
		fmt.Fprintln(os.Stderr, "wvqbench:", err)
		os.Exit(1)
	}
}

func run(cfg config, maxActive, maxQueued int, out string) error {
	cfg.Schema = "age:64,salary:64"
	cfg.Filter = "Db4"
	h, err := buildHandler(cfg, maxActive, maxQueued)
	if err != nil {
		return err
	}
	defer h.Close()

	// Register the prepared class's shared batches up front. The ad-hoc phase
	// runs between this registration and the prepared phase, so the prepared
	// plans face realistic LRU pressure; evicted handles recover through the
	// counted 404 → re-prepare path.
	handles := make([]string, cfg.PreparedBatches)
	stmtsByHandle := make([]string, cfg.PreparedBatches)
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := range handles {
		stmtsByHandle[i] = randomStatements(rng, cfg.BatchQueries)
		handle, err := prepare(h, stmtsByHandle[i])
		if err != nil {
			return fmt.Errorf("preparing batch %d: %w", i, err)
		}
		handles[i] = handle
	}

	fmt.Fprintf(os.Stderr, "wvqbench: %d streams × %d requests per class (budget %d)\n",
		cfg.Streams, cfg.Requests, cfg.Budget)

	start := time.Now()
	adhocRep, adhocLat, adhocDur := runPhase(cfg.Streams, func(s int) ([]float64, classReport) {
		return adhocStream(h, cfg, s)
	})
	fmt.Fprintf(os.Stderr, "wvqbench: ad-hoc phase done in %v\n", adhocDur.Round(time.Millisecond))
	prepRep, prepLat, prepDur := runPhase(cfg.Streams, func(s int) ([]float64, classReport) {
		return preparedStream(h, cfg, s, handles, stmtsByHandle)
	})
	fmt.Fprintf(os.Stderr, "wvqbench: prepared phase done in %v\n", prepDur.Round(time.Millisecond))
	elapsed := time.Since(start)

	reg, _ := registryStats(h)
	rep := report{
		Bench:     "wvqbench",
		Config:    cfg,
		ElapsedMs: float64(elapsed.Microseconds()) / 1000,
		Prepared:  summarize(prepRep, cfg.Streams, prepLat, prepDur),
		Adhoc:     summarize(adhocRep, cfg.Streams, adhocLat, adhocDur),
		Registry:  reg,
		Notes: []string{
			"in-process handler driven through httptest recorders: parse, admission, plan registration, scheduling and response rendering are measured; sockets and network jitter are not",
			"single machine, client goroutines and server share GOMAXPROCS — throughput is a lower bound and the prepared/ad-hoc comparison is the point, not absolute qps (BENCH_core.json convention)",
			"ad-hoc batches are drawn i.i.d. per request, so virtually every ad-hoc request pays full plan construction; prepared streams share a fixed batch set resolved by handle",
			"classes run as separate phases at equal concurrency — a concurrent mix on one scheduler shares its queue wait across classes, which would hide exactly the plan-construction cost under comparison; per-class qps divides class requests by phase wall-clock",
			"the ad-hoc phase runs first and its registry churn evicts the prepared plans, so prepared numbers include the 404 → re-prepare recovery path (reprepares counts them)",
		},
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wvqbench: prepared p50=%.2fms p99=%.2fms qps=%.0f | adhoc p50=%.2fms p99=%.2fms qps=%.0f → %s\n",
		rep.Prepared.P50Ms, rep.Prepared.P99Ms, rep.Prepared.QPS,
		rep.Adhoc.P50Ms, rep.Adhoc.P99Ms, rep.Adhoc.QPS, out)
	return nil
}

// runPhase drives one class: streams concurrent workers, each running the
// stream function, with latencies and counters merged across streams.
func runPhase(streams int, stream func(s int) ([]float64, classReport)) (classReport, []float64, time.Duration) {
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		rep classReport
		lat []float64
	)
	start := time.Now()
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			l, st := stream(s)
			mu.Lock()
			lat = append(lat, l...)
			rep.Retries429 += st.Retries429
			rep.Reprepares += st.Reprepares
			rep.Errors += st.Errors
			mu.Unlock()
		}(s)
	}
	wg.Wait()
	return rep, lat, time.Since(start)
}

// buildHandler assembles the in-process server over a synthetic database.
func buildHandler(cfg config, maxActive, maxQueued int) (*server.Handler, error) {
	schema, err := repro.NewSchema([]string{"age", "salary"}, []int{64, 64})
	if err != nil {
		return nil, err
	}
	dist := repro.NewDistribution(schema)
	rng := rand.New(rand.NewSource(cfg.Seed + 7919))
	for i := 0; i < cfg.Tuples; i++ {
		dist.AddTuple([]int{rng.Intn(64), rng.Intn(64)})
	}
	db, err := repro.NewDatabase(dist, repro.Db4)
	if err != nil {
		return nil, err
	}
	return server.New(db, server.Options{
		Sched: sched.Config{
			MaxActive: maxActive,
			MaxQueued: maxQueued,
		},
		PlanCache: cfg.PlanCache,
		// The bench registers arbitrarily many ad-hoc fingerprints under
		// the anonymous tenant; prepared registrations stay tiny.
		MaxPreparedPerTenant: -1,
	}), nil
}

// randomStatements draws one batch of range-sum/count statements.
func randomStatements(rng *rand.Rand, queries int) string {
	var sb strings.Builder
	for q := 0; q < queries; q++ {
		if q > 0 {
			sb.WriteString("; ")
		}
		lo := rng.Intn(56)
		hi := lo + 1 + rng.Intn(63-lo)
		if q%2 == 0 {
			fmt.Fprintf(&sb, "SUM(salary) WHERE age BETWEEN %d AND %d", lo, hi)
		} else {
			fmt.Fprintf(&sb, "COUNT() WHERE age BETWEEN %d AND %d", lo, hi)
		}
	}
	return sb.String()
}

// prepare registers a batch and returns its handle.
func prepare(h *server.Handler, statements string) (string, error) {
	body, _ := json.Marshal(map[string]string{"statements": statements})
	rec := do(h, http.MethodPost, "/prepare", string(body))
	if rec.Code != http.StatusOK {
		return "", fmt.Errorf("prepare: %d %s", rec.Code, rec.Body)
	}
	var resp struct {
		Handle string `json:"handle"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return "", err
	}
	return resp.Handle, nil
}

func do(h *server.Handler, method, path, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// preparedStream executes its share of handle requests, re-preparing when
// registry churn evicted the plan.
func preparedStream(h *server.Handler, cfg config, stream int, handles, stmts []string) ([]float64, classReport) {
	var st classReport
	lat := make([]float64, 0, cfg.Requests)
	idx := stream % len(handles)
	// The handle is stream-local: re-preparing an evicted batch returns the
	// same fingerprint, so streams sharing a batch never need to coordinate.
	handle := handles[idx]
	for r := 0; r < cfg.Requests; r++ {
		body := fmt.Sprintf(`{"handle": %q, "budget": %d}`, handle, cfg.Budget)
		ms, code := timedQuery(h, body, &st)
		if code == http.StatusNotFound {
			// Evicted under ad-hoc churn: re-register and retry once.
			if fresh, err := prepare(h, stmts[idx]); err == nil {
				handle = fresh
				st.Reprepares++
				body = fmt.Sprintf(`{"handle": %q, "budget": %d}`, handle, cfg.Budget)
				ms, code = timedQuery(h, body, &st)
			}
		}
		if code != http.StatusOK && code != http.StatusPartialContent {
			st.Errors++
			continue
		}
		lat = append(lat, ms)
	}
	return lat, st
}

// adhocStream submits a fresh inline batch per request.
func adhocStream(h *server.Handler, cfg config, stream int) ([]float64, classReport) {
	var st classReport
	lat := make([]float64, 0, cfg.Requests)
	rng := rand.New(rand.NewSource(cfg.Seed ^ int64(0x9e3779b9*uint32(stream+1))))
	for r := 0; r < cfg.Requests; r++ {
		stmts := randomStatements(rng, cfg.BatchQueries)
		body, _ := json.Marshal(map[string]any{"statements": stmts, "budget": cfg.Budget})
		ms, code := timedQuery(h, string(body), &st)
		if code != http.StatusOK && code != http.StatusPartialContent {
			st.Errors++
			continue
		}
		lat = append(lat, ms)
	}
	return lat, st
}

// timedQuery posts one /query request, retrying 429s with backoff; the
// reported latency is the successful attempt only (retries are counted, not
// folded into latency).
func timedQuery(h *server.Handler, body string, st *classReport) (ms float64, code int) {
	for attempt := 0; ; attempt++ {
		start := time.Now()
		rec := do(h, http.MethodPost, "/query", body)
		elapsed := time.Since(start)
		if rec.Code == http.StatusTooManyRequests && attempt < 50 {
			st.Retries429++
			time.Sleep(time.Duration(1+attempt) * time.Millisecond)
			continue
		}
		return float64(elapsed.Microseconds()) / 1000, rec.Code
	}
}

func summarize(st classReport, streams int, lat []float64, elapsed time.Duration) classReport {
	st.Streams = streams
	st.Requests = len(lat)
	st.P50Ms = percentile(lat, 0.50)
	st.P99Ms = percentile(lat, 0.99)
	if secs := elapsed.Seconds(); secs > 0 {
		st.QPS = float64(len(lat)) / secs
	}
	return st
}

func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[int(p*float64(len(s)-1))]
}

// registryStats pulls the prepared section out of /stats.
func registryStats(h *server.Handler) (repro.PlanRegistryStats, error) {
	rec := do(h, http.MethodGet, "/stats", "")
	var resp struct {
		Prepared repro.PlanRegistryStats `json:"prepared"`
	}
	err := json.Unmarshal(rec.Body.Bytes(), &resp)
	return resp.Prepared, err
}
