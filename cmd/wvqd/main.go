// Command wvqd serves a persisted wavelet database over HTTP — the
// precompute-once, query-many deployment of the system:
//
//	wvload -in data.csv -cols "age:64,salary:128" -out db.wvdb
//	wvqd -db db.wvdb -addr :8080 &
//	curl -s localhost:8080/query -d '{
//	    "statements": "SUM(salary) WHERE age BETWEEN 20 AND 40 GROUP BY age(8)",
//	    "budget": 200
//	}'
//
// Progressive responses (budget below the master-list size) carry per-query
// worst-case error bounds; /query/stream delivers every intermediate
// snapshot as Server-Sent Events; /stats reports the view's metadata plus
// scheduler and I/O-coalescing counters; /healthz serves liveness.
//
// All query execution flows through the progressive scheduler: -max-active
// and -max-queued bound admission (beyond both, requests get 429 +
// Retry-After), -slice sets the retrievals granted per scheduling turn.
//
// POST /prepare registers a batch once and returns a handle that /query and
// /query/stream execute without re-planning; -plan-cache bounds the
// prepared-plan registry and -max-prepared-per-tenant caps one client's
// concurrent registrations (X-Tenant header; exceeding it gets 429).
//
// The daemon is fully observed: every request gets an ID that threads
// through structured logs (-log-format selects text or JSON on stderr),
// a span trace of its retrieval path, and a per-run trace of the error-bound
// trajectory. -pprof exposes the debug listener (e.g. -pprof localhost:6060)
// carrying net/http/pprof, Prometheus metrics at /metrics, and recent span
// and run traces at /debug/traces — kept off the public mux so none of it
// reaches query clients.
//
// On SIGINT/SIGTERM the daemon stops accepting connections, drains in-flight
// requests for -drain-timeout, cancels whatever is still running, and exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/server"
)

// options is the daemon's parsed command line.
type options struct {
	dbPath, layoutPath, addr, pprofAddr string
	logFormat, logLevel                 string
	drainTimeout                        time.Duration
	server                              server.Options
	mvcc                                mvccConfig
	dist                                distConfig

	// stack declares the store layers the flags ask for: faults when a
	// chaos knob is on, retries with -retry-attempts, timing always (the
	// observer arms it).
	stack repro.Stack

	// Shard-server mode (-shard-listen): no HTTP, one partition over TCP.
	shardListen            string
	shardIndex, shardCount int
}

// parseFlags parses and validates the command line. Misconfiguration is an
// explicit error, never a silently ignored flag — a shard set and a
// coordinator that disagree about the partition would route keys to the
// wrong nodes, and a chaos or retry knob that does nothing would pass for a
// drill that ran.
func parseFlags(args []string) (*options, error) {
	var (
		o          options
		shardAddrs string
		retry      repro.RetryConfig
		chaos      repro.FaultConfig
	)
	fs := flag.NewFlagSet("wvqd", flag.ContinueOnError)
	fs.StringVar(&o.dbPath, "db", "temperature.wvdb", "database file to serve")
	fs.StringVar(&o.layoutPath, "layout", "", "serve a schedule-aware .wvls layout file instead of -db (read-only; convert with wvlayout)")
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&o.server.Sched.MaxActive, "max-active", 0, "concurrent runs in the scheduler table (0 = default 64)")
	fs.IntVar(&o.server.Sched.MaxQueued, "max-queued", 0, "runs waiting behind the table before 429 (0 = default 256)")
	fs.IntVar(&o.server.Sched.Slice, "slice", 0, "retrievals per scheduling turn (0 = default 512)")
	fs.IntVar(&o.server.Sched.Workers, "workers", 0, "scheduler worker goroutines (0 = GOMAXPROCS)")
	fs.IntVar(&o.server.PlanCache, "plan-cache", 0, "prepared plans held in the registry (0 = default 256)")
	fs.IntVar(&o.server.Sched.MaxPreparedPerTenant, "max-prepared-per-tenant", 0, "prepared plans one tenant may hold (0 = default 32, negative = unlimited)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 15*time.Second, "how long shutdown waits for in-flight requests")
	fs.StringVar(&o.pprofAddr, "pprof", "", "serve pprof, /metrics, /debug/traces and /debug/profiles on this address (empty = disabled)")
	fs.StringVar(&o.logFormat, "log-format", "text", "structured log format: text or json")
	fs.StringVar(&o.logLevel, "log-level", "info", "minimum log level: debug, info, warn or error")

	// Diagnostics: -slow-query arms per-request EXPLAIN ANALYZE profiling
	// and logs any request whose wall time reaches the threshold;
	// -profile-ring sizes the /debug/profiles ring of retained profiles.
	fs.DurationVar(&o.server.SlowQuery, "slow-query", 0, "log an EXPLAIN ANALYZE profile for requests at or above this duration (0 = disabled)")
	fs.IntVar(&o.server.ProfileRing, "profile-ring", 0, "finished profiles retained for /debug/profiles (0 = default 64)")

	// Robustness: retry policy over the store's retrievals, and a
	// deterministic chaos injector underneath it for resilience drills.
	fs.IntVar(&retry.MaxAttempts, "retry-attempts", 0, "retry failed retrievals up to N attempts (0 = no retry layer)")
	fs.DurationVar(&retry.BaseDelay, "retry-base", 0, "base backoff delay between retry attempts (0 = default 1ms)")
	fs.DurationVar(&retry.AttemptTimeout, "retry-timeout", 0, "per-attempt retrieval timeout (0 = none)")

	fs.Float64Var(&chaos.ErrorRate, "chaos-error-rate", 0, "inject retrieval errors on this fraction of keys [0,1)")
	fs.IntVar(&chaos.ErrorEvery, "chaos-error-every", 0, "inject a retrieval error every Nth retrieved key (0 = off)")
	fs.Float64Var(&chaos.DelayRate, "chaos-delay-rate", 0, "inject latency on this fraction of keys [0,1)")
	fs.DurationVar(&chaos.Delay, "chaos-delay", 0, "latency injected on delayed retrievals")
	fs.Uint64Var(&chaos.Seed, "chaos-seed", 1, "seed of the deterministic chaos schedule")

	// Distributed tier: -shard-listen turns the daemon into a coefficient
	// shard server (no HTTP); -shards turns it into a coordinator serving
	// HTTP against remote shards instead of a local database file.
	fs.StringVar(&o.shardListen, "shard-listen", "", "serve shard -shard-index of -shard-count over TCP on this address instead of HTTP")
	fs.IntVar(&o.shardIndex, "shard-index", 0, "this shard's index in [0,-shard-count) (with -shard-listen)")
	fs.IntVar(&o.shardCount, "shard-count", 0, "total shards in the deployment, a power of two (with -shard-listen)")
	fs.StringVar(&shardAddrs, "shards", "", "comma-separated shard addresses to coordinate over (shard i must be the i-th address)")
	fs.DurationVar(&o.dist.opts.DialTimeout, "shard-dial-timeout", 0, "per-shard connect timeout (0 = default 2s)")
	fs.DurationVar(&o.dist.opts.RequestTimeout, "shard-timeout", 0, "per-shard request deadline (0 = default 5s)")
	fs.IntVar(&o.dist.opts.PoolSize, "shard-pool", 0, "idle connections kept per shard (0 = default 4)")

	// Live updates: -mvcc turns the loaded database into an MVCC snapshot
	// store — POST /ingest applies write batches, queries pin bit-stable
	// snapshots, /query?version=N addresses retained versions, and a
	// background compactor folds update layers into the base.
	fs.BoolVar(&o.mvcc.enabled, "mvcc", false, "enable MVCC live updates: POST /ingest, snapshot-pinned queries, ?version= reads")
	fs.IntVar(&o.mvcc.cfg.MaxLayers, "mvcc-max-layers", 0, "update layers tolerated before background compaction (0 = default 16)")
	fs.IntVar(&o.mvcc.cfg.MaxLayerKeys, "mvcc-max-layer-keys", 0, "total overlay coefficients tolerated before background compaction (0 = default 131072)")
	fs.IntVar(&o.mvcc.cfg.Retain, "mvcc-retain", 0, "historical versions addressable via ?version= (0 = default 8)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	var robustSet []string // the -retry-*/-chaos-* flags given, whatever their values
	fs.Visit(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "retry-") || strings.HasPrefix(f.Name, "chaos-") {
			robustSet = append(robustSet, "-"+f.Name)
		}
	})
	mv := o.mvcc.cfg
	switch {
	case o.shardListen != "" && shardAddrs != "":
		return nil, errors.New("-shard-listen (shard server) and -shards (coordinator) are mutually exclusive")
	// A layout file is a complete local view: it cannot be partitioned into
	// shards after the fact and a coordinator has no local store at all.
	case o.layoutPath != "" && (o.shardListen != "" || shardAddrs != ""):
		return nil, errors.New("-layout is a local serving mode; it cannot be combined with -shard-listen or -shards")
	case o.server.SlowQuery < 0:
		return nil, errors.New("-slow-query must be non-negative")
	case o.server.ProfileRing < 0:
		return nil, errors.New("-profile-ring must be non-negative")
	// A shard server answers retrieval frames, not queries: there is nothing
	// to profile at that granularity there, and it serves its partition
	// through a stack with no retry or chaos layer.
	case o.shardListen != "" && (o.server.SlowQuery != 0 || o.server.ProfileRing != 0):
		return nil, errors.New("-slow-query/-profile-ring only apply to query-serving modes, not -shard-listen")
	case o.shardListen != "" && len(robustSet) > 0:
		return nil, fmt.Errorf("-shard-listen serves through no retry or chaos layer; drop %s", strings.Join(robustSet, ", "))
	case o.shardListen == "" && (o.shardIndex != 0 || o.shardCount != 0):
		return nil, errors.New("-shard-index/-shard-count only apply with -shard-listen")
	case shardAddrs == "" && o.dist.opts != (repro.DistOptions{}):
		return nil, errors.New("-shard-dial-timeout/-shard-timeout/-shard-pool only apply with -shards")
	// MVCC needs a local, writable, enumerable view: a layout file is
	// read-only, a coordinator has no local store, and a shard server does
	// not take writes.
	case o.mvcc.enabled && (o.layoutPath != "" || o.shardListen != "" || shardAddrs != ""):
		return nil, errors.New("-mvcc serves a local database file; it cannot be combined with -layout, -shard-listen or -shards")
	case !o.mvcc.enabled && (mv.MaxLayers != 0 || mv.MaxLayerKeys != 0 || mv.Retain != 0):
		return nil, errors.New("-mvcc-max-layers/-mvcc-max-layer-keys/-mvcc-retain only apply with -mvcc")
	case retry.MaxAttempts == 0 && (retry.BaseDelay != 0 || retry.AttemptTimeout != 0):
		return nil, errors.New("-retry-base/-retry-timeout only apply with -retry-attempts")
	case chaos.Delay != 0 && chaos.DelayRate == 0:
		return nil, errors.New("-chaos-delay only applies with -chaos-delay-rate")
	}
	if o.shardListen != "" {
		if err := repro.ValidShardCount(o.shardCount); err != nil {
			return nil, fmt.Errorf("-shard-count: %w", err)
		}
		if o.shardIndex < 0 || o.shardIndex >= o.shardCount {
			return nil, fmt.Errorf("-shard-index %d out of range [0,%d)", o.shardIndex, o.shardCount)
		}
	}
	if shardAddrs != "" {
		for _, a := range strings.Split(shardAddrs, ",") {
			a = strings.TrimSpace(a)
			if a == "" {
				return nil, errors.New("-shards contains an empty address")
			}
			o.dist.shards = append(o.dist.shards, a)
		}
		if err := repro.ValidShardCount(len(o.dist.shards)); err != nil {
			return nil, fmt.Errorf("-shards: %w", err)
		}
	}
	o.stack.Instrument = true
	if chaos.ErrorRate > 0 || chaos.ErrorEvery > 0 || chaos.DelayRate > 0 {
		o.stack.Fault = &chaos
	}
	if retry.MaxAttempts > 0 {
		o.stack.Retry = &retry
	}
	return &o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wvqd:", err)
		os.Exit(1)
	}
	log, err := newLogger(o.logFormat, o.logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wvqd:", err)
		os.Exit(1)
	}
	if o.shardListen != "" {
		err = runShard(o.dbPath, o.shardListen, o.shardIndex, o.shardCount, o.pprofAddr, log)
	} else {
		err = run(o.dbPath, o.layoutPath, o.addr, o.pprofAddr, o.server, o.stack, o.dist, o.mvcc, o.drainTimeout, log)
	}
	if err != nil {
		log.Error("exiting", "error", err)
		os.Exit(1)
	}
}

// newLogger builds the daemon's structured logger on stderr.
func newLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	log, err := obs.NewLogger(format, lv, os.Stderr)
	if err != nil {
		return nil, fmt.Errorf("bad -log-format: %w", err)
	}
	return log, nil
}

// distConfig selects coordinator mode: a non-empty shard list replaces the
// local database file with a fan-out over remote shard servers.
type distConfig struct {
	shards []string
	opts   repro.DistOptions
}

// mvccConfig selects live-update mode: the loaded database becomes an MVCC
// snapshot store.
type mvccConfig struct {
	enabled bool
	cfg     repro.MVCCConfig
}

func run(dbPath, layoutPath, addr, pprofAddr string, opts server.Options, stack repro.Stack, dist distConfig, mvcc mvccConfig, drainTimeout time.Duration, log *slog.Logger) error {
	var db *repro.Database
	switch {
	case len(dist.shards) > 0:
		var err error
		db, err = repro.OpenDistributed(dist.shards, dist.opts)
		if err != nil {
			return err
		}
		log.Info("coordinating over shards", "shards", fmt.Sprint(dist.shards))
	case layoutPath != "":
		var err error
		db, err = repro.OpenLayout(layoutPath)
		if err != nil {
			return fmt.Errorf("opening layout (convert a database with wvlayout): %w", err)
		}
		dbPath = layoutPath
		ls, _ := db.LayoutStats()
		log.Info("serving from layout",
			"layout", layoutPath,
			"dense", ls.Dense,
			"hot_slots", ls.HotSlots,
			"blocks", ls.Blocks,
			"block_size", ls.BlockSize,
			"mmapped", ls.Mmapped,
			"quantized", ls.Quantized)
	default:
		f, err := os.Open(dbPath)
		if err != nil {
			return fmt.Errorf("opening database (create one with wvload or wvq -create): %w", err)
		}
		db, err = repro.LoadDatabase(f)
		_ = f.Close()
		if err != nil {
			return err
		}
	}
	defer func() { _ = db.Close() }()
	// The database builds the declared layers in its one fixed order, MVCC's
	// write layers on top (the "serving" line prints the result).
	if mvcc.enabled {
		if err := db.EnableMVCC(mvcc.cfg); err != nil {
			return fmt.Errorf("enabling MVCC: %w", err)
		}
		log.Info("mvcc on",
			"max_layers", mvcc.cfg.MaxLayers,
			"max_layer_keys", mvcc.cfg.MaxLayerKeys,
			"retain", mvcc.cfg.Retain)
	}
	if chaos := stack.Fault; chaos != nil {
		log.Info("chaos injection on",
			"error_rate", chaos.ErrorRate,
			"error_every", chaos.ErrorEvery,
			"delay_rate", chaos.DelayRate,
			"delay", chaos.Delay,
			"seed", chaos.Seed)
	}
	if stack.Retry != nil {
		log.Info("retries on", "max_attempts", stack.Retry.MaxAttempts)
	}
	db.SetStack(stack)
	h := server.New(db, opts)
	o := obs.NewObserver()
	o.Log = log
	h.Observe(o)
	log.Info("serving",
		"db", dbPath,
		"addr", addr,
		"tuples", db.TupleCount(),
		"attributes", fmt.Sprint(db.Schema().Names),
		"sizes", fmt.Sprint(db.Schema().Sizes),
		"coefficients", db.NonzeroCoefficients(),
		"filter", db.Filter().Name,
		"store_stack", db.StoreStack())
	srv := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		// WriteTimeout must cover a whole SSE stream, not one write, so it
		// stays generous; slow /query clients are bounded by it too.
		WriteTimeout: 5 * time.Minute,
		IdleTimeout:  2 * time.Minute,
	}

	if pprofAddr != "" {
		debugSrv := newDebugServer(pprofAddr, o)
		defer debugSrv.Close()
		go func() {
			log.Info("debug listener on",
				"pprof", "http://"+pprofAddr+"/debug/pprof/",
				"metrics", "http://"+pprofAddr+"/metrics",
				"traces", "http://"+pprofAddr+"/debug/traces",
				"profiles", "http://"+pprofAddr+"/debug/profiles")
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Error("debug listener failed", "error", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	select {
	case err := <-errc:
		return err // bind failure etc. — never got to serving
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately via the default handler
	log.Info("shutting down, draining in-flight requests", "drain_timeout", drainTimeout)

	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := srv.Shutdown(shutdownCtx)
	// Cancel whatever outlived the drain and stop the scheduler workers.
	h.Close()
	if serveErr := <-errc; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
		return serveErr
	}
	return err
}

// runShard serves one coefficient shard over TCP: the daemon's shard-server
// mode. The database file is streamed once and only its partition for
// (index, count) is kept — the process never holds the whole file. Shutdown
// reuses the daemon's signal path: stop accepting, sever connections, exit. The
// shard keeps its own span ring: request frames carrying a coordinator trace
// context (wire v2) record shard-side spans under the coordinator's request
// ID, served at /debug/traces on the -pprof listener.
func runShard(dbPath, listen string, index, count int, pprofAddr string, log *slog.Logger) error {
	f, err := os.Open(dbPath)
	if err != nil {
		return fmt.Errorf("opening database (create one with wvload or wvq -create): %w", err)
	}
	ss, err := repro.LoadShardServer(f, index, count, log)
	_ = f.Close()
	if err != nil {
		return err
	}
	o := obs.NewObserver()
	o.Log = log
	ss.ObserveSpans(o.Spans)
	if pprofAddr != "" {
		debugSrv := newDebugServer(pprofAddr, o)
		defer debugSrv.Close()
		go func() {
			log.Info("debug listener on",
				"pprof", "http://"+pprofAddr+"/debug/pprof/",
				"traces", "http://"+pprofAddr+"/debug/traces")
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Error("debug listener failed", "error", err)
			}
		}()
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	log.Info("serving shard",
		"db", dbPath,
		"addr", ln.Addr().String(),
		"shard", index,
		"shards", count,
		"coefficients", ss.Nonzero(),
		"mass", ss.Mass(),
		"filter", ss.FilterName(),
		"store_stack", ss.StoreStack())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- ss.Serve(ln) }()
	select {
	case err := <-errc:
		return err // bind/accept failure — never got to serving
	case <-ctx.Done():
	}
	stop()
	log.Info("shutting down shard server")
	_ = ss.Close()
	return <-errc
}

// newDebugServer builds the debug listener on an explicit mux: net/http/pprof
// handlers (importing the package only registers on http.DefaultServeMux,
// which the query server deliberately does not use), Prometheus metrics
// exposition, and the span/run trace dump.
func newDebugServer(addr string, o *obs.Observer) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", o.MetricsHandler())
	mux.Handle("/debug/traces", o.TracesHandler())
	mux.Handle("/debug/profiles", o.ProfilesHandler())
	return &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
}
