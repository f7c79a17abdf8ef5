# Development targets. `make check` is the gate: vet + errlint + obs-lint +
# sort-lint + stack-lint + metric-lint + build + Windows and macOS
# cross-builds + the bench-module build + tests + the paper's evaluation
# diffed against experiment_results.txt + race-enabled tests + fuzz, in that
# order, failing fast. `make cover` prints a per-package coverage summary. `make bench` runs the
# parallel-engine and scheduler benchmarks at a fixed iteration count
# (numbers recorded in BENCH_parallel.json and BENCH_sched.json);
# `make bench-core` runs the CSR/schedule benches behind BENCH_core.json;
# `make bench-robust` runs the error-plumbing and robustness-wrapper overhead
# benches behind BENCH_robust.json; `make bench-obs` runs the observability overhead
# benches behind BENCH_obs.json; `make bench-load` replays the wvqbench
# prepared-vs-ad-hoc load workload behind BENCH_load.json; `make bench-dist`
# runs the shard-coordinator fan-out benches behind BENCH_dist.json;
# `make bench-storage` runs the 10M-coefficient cold-drain benches and the
# in-memory store's load/lookup benches behind BENCH_storage.json;
# `make bench-ingest` runs the MVCC write-path benches
# (batched vs single-tuple Apply throughput, reader latency during sustained
# writes) behind BENCH_ingest.json. `make served-diff` checks the bytes the
# daemon serves in every open configuration against the served goldens.
# `make fuzz` gives the six decoders of untrusted bytes — the view-file
# reader (FuzzRead: .wvls files read into memory through codec.Read,
# layout.Load and a walk), the query-language parser (FuzzParse), the .wvls
# layout opener (FuzzOpenLayout), the shard wire reader (FuzzWireFrame),
# the /query and /prepare JSON bodies (FuzzQueryRequest) and the /ingest
# CSV (FuzzIngestCSV) — a short adversarial shake each and runs as part of
# `make check`.

GO ?= go

.PHONY: all check vet errlint obs-lint sort-lint stack-lint metric-lint build cross-build bench-build test experiments-diff served-diff race fuzz cover bench bench-core bench-sched bench-robust bench-obs bench-load bench-dist bench-storage bench-ingest bench-all

all: check

check: vet errlint obs-lint sort-lint stack-lint metric-lint build cross-build bench-build test experiments-diff race fuzz

vet:
	$(GO) vet ./...

# Dependency-free errcheck equivalent (tools/errlint): no call may silently
# drop an error result.
errlint:
	$(GO) run ./tools/errlint ./...

# Library packages must log through internal/obs (structured slog with
# request IDs), never print to the console directly: no package-log calls,
# no implicit-stdout fmt printing, no fmt.Fprint* to os.Stdout/os.Stderr.
# Commands (cmd/) and tests are exempt; fmt.Fprintf into buffers, HTTP
# responses and other writers is fine and stays unmatched.
obs-lint:
	@! grep -rnE '(^|[^.[:alnum:]_])(log\.(Printf|Println|Print|Fatalf?|Fatalln|Panicf?|Panicln)\(|fmt\.(Printf|Println|Print)\(|fmt\.Fprint(f|ln)?\(os\.Std)' internal *.go --include='*.go' | grep -v _test.go \
		|| { echo "obs-lint: raw console printing in library code; log via internal/obs (slog) instead" >&2; exit 1; }

# The request path — batch canonicalisation (internal/query, run on every
# /prepare and inline /query), the engine (internal/core) and the retrieval
# layers under it (internal/storage and its layout reader, internal/mvcc,
# internal/dist) — holds no reflection sorts. sort.Slice/sort.SliceStable
# swap through reflect and call a closure per comparison; profiles of the
# plan and schedule builds found them three PRs running. A failure list is
# ascending by construction (storage.GetAt, storage.MergeFailed) and needs no
# sort at all. Elsewhere use slices.SortFunc (or a typed sort.Ints/slices.Sort).
SORT_LINT_DIRS = internal/query internal/core internal/storage internal/storage/layout internal/mvcc internal/dist
sort-lint:
	@! grep -nE 'sort\.Slice(Stable)?\(' $$(ls $(addsuffix /*.go,$(SORT_LINT_DIRS)) | grep -v _test.go) \
		|| { echo "sort-lint: reflection sort on the request path; use slices.SortFunc" >&2; exit 1; }

# The store stack is declared, not wrapped on by hand: storage.Stack.Build is
# the one caller of the layer constructors, so their order is written once.
# Non-test Go outside internal/storage sets a field of a Stack instead.
stack-lint:
	@! grep -rnE 'New(Fault|Retry|Instrumented|Coalescing)Store\(' --include='*.go' . | grep -v _test.go | grep -v '^./internal/storage/' \
		|| { echo "stack-lint: store layer constructed outside internal/storage; declare it on a storage.Stack" >&2; exit 1; }

# Metric naming hygiene (tools/metriclint): every registered metric — pushed
# (Counter/Gauge/Histogram) or read (ReadCounter/ReadGauge) — is snake_case
# under the wvq_ prefix, carries literal help text, and each name has one
# kind, one help string, one call site (labeled variants of one series
# excepted) and one owner: it is pushed or read, never both.
metric-lint:
	$(GO) run ./tools/metriclint .

build:
	$(GO) build ./...

# The host build compiles only the Linux files. Windows compiles every `!unix`
# fallback (layout's mmap_other.go, storage's offheap_other.go); macOS
# compiles the unix paths without Linux's (storage's offheap_unixother.go,
# whose huge-page advice is a no-op).
cross-build:
	GOOS=windows GOARCH=amd64 $(GO) build ./...
	GOOS=darwin GOARCH=arm64 $(GO) build ./...

# The benchmark harness is its own module (bench/go.mod), so `./...` above
# never compiles it: vet and build it here so an internal-API change that
# breaks it fails the gate, not the benchmark pipeline. -o /dev/null keeps
# the build from leaving a binary in bench/.
bench-build:
	cd bench && $(GO) vet ./... && $(GO) build -o /dev/null ./...

test:
	$(GO) test ./...

# The paper's evaluation, pinned: every experiment of cmd/experiments at its
# default (seeded) scale must print experiment_results.txt again, byte for
# byte, apart from the workload's wall-clock timing line. When a change to
# the numbers is intended, regenerate the file with
# `go run ./cmd/experiments -exp all > experiment_results.txt` and commit it.
experiments-diff:
	$(GO) run ./cmd/experiments -exp all | diff -u -I '^workload ready in ' experiment_results.txt -

# The served bytes, pinned: every /prepare and /query body of a fixed
# script, over each way wvqd opens a view (mapped -db of a dense and a sparse
# file, -db -mvcc before and after writes, 2- and 4-shard coordinators) and
# over a loaded file, against internal/server/testdata/served. A loaded or
# -mvcc view, or a coordinator, that serves other bytes than the mapped one
# fails it.
served-diff:
	$(GO) test -count=1 -run TestServedBodiesMatchGolden ./internal/server/

# The mapped stores' lifetime test runs ten times more: a finalizer that
# unmapped under a running reader would kill the process, not fail a check.
# So does the test that a dropped store's finalizer unmaps its memory.
# It runs without -race, which keeps the stores on the heap (the detector
# checks only heap addresses) and so has no mapping to lose. So does the
# loaded view file's, whose bytes a finalizer unmaps too. The concurrent
# recorder test runs ten times more under -race: the retry, coalescing and
# step sites write into run recorders that /debug/profiles reads live. So does
# the registry's tenant-cap test: one tenant's goroutines register and remove
# plans while a reader checks the count against the slots. So does
# the cached row of the store contract: a session cache is the one store
# whose reads take a lock of its own, and eight readers share it. So do the
# MVCC fold-race and drain-while-apply tests: publishing a view's overlay
# (Apply, and a fold swapping its base under writes) is that package's one
# concurrency point. So does the coordinator row of the failure contract:
# its shard goroutines write disjoint positions of one dst through
# storage.GetAt while failures come back from both shards.
race:
	$(GO) test -race ./...
	$(GO) test -count=10 -run 'TestMappedStoreOutlivesItsReaders|TestDroppedStoreUnmapsItsMemory' ./internal/storage/
	$(GO) test -count=10 -run TestLoadedStoreOutlivesItsReaders ./internal/storage/layout/
	$(GO) test -race -count=10 -run 'TestRecorderConcurrentRuns|TestRegistryTenantCapConcurrent' ./internal/core/
	$(GO) test -race -count=10 -run 'TestStoreContract/cached' ./internal/storetest/
	$(GO) test -race -count=10 -run 'TestCompactionRacingApply|TestConcurrentDrainWhileApply' ./internal/mvcc/
	$(GO) test -race -count=10 -run 'TestStoreFailureContract/coordinator' ./internal/storetest/

# Short adversarial fuzz of everything that decodes bytes from outside the
# process: mutated .wvls view files read into memory, query
# text, .wvls layout files opened for serving and shard wire
# frames must be rejected with errors (or, for layouts, open and serve with
# per-key errors), never panic; HTTP /query, /prepare and /ingest bodies get
# a 4xx or an answer, never a 5xx. The seed corpora alone run in the normal
# tests; this gives each mutator a fixed, CI-sized budget.
fuzz:
	$(GO) test -run NONE -fuzz FuzzRead -fuzztime 10s ./internal/codec/
	$(GO) test -run NONE -fuzz FuzzParse -fuzztime 10s ./internal/ql/
	$(GO) test -run NONE -fuzz FuzzOpenLayout -fuzztime 10s ./internal/storage/layout/
	$(GO) test -run NONE -fuzz FuzzWireFrame -fuzztime 10s ./internal/codec/
	$(GO) test -run NONE -fuzz FuzzQueryRequest -fuzztime 10s ./internal/server/
	$(GO) test -run NONE -fuzz FuzzIngestCSV -fuzztime 10s ./internal/server/

cover:
	$(GO) test -cover ./... | grep -v 'no test files'

# Parallel-engine benchmarks: plan construction, exact evaluation, batched
# stepping, parallel reads of the in-memory stores.
bench:
	$(GO) test -run NONE -bench 'BenchmarkPlanParallel|BenchmarkExactParallel|BenchmarkStepBatch' -benchtime=100x ./internal/core/
	$(GO) test -run NONE -bench 'BenchmarkParallelReads' -benchtime=100x ./internal/storage/

# Evaluation-core benchmarks behind BENCH_core.json: run setup heap-vs-
# schedule, exact pass AoS-vs-CSR, and prefetching StepBatch batch sizes;
# plus the fixed costs around a prepared run — a registry miss with resident
# shapes (rewrite + merge + schedule), the schedule build alone, a full
# ad-hoc plan build, and a run's first per-query bound read.
bench-core:
	$(GO) test -run NONE -bench 'BenchmarkNewRun|BenchmarkStepToCompletion|BenchmarkExactLayout|BenchmarkStepBatchPrefetch|BenchmarkRegistryMiss|BenchmarkBuildSchedule|BenchmarkPlanRegistryAdhocBuild|BenchmarkFirstQueryErrorBounds' -benchmem -benchtime=100x ./internal/core/

# Scheduler benchmarks: concurrent mixed workload through the scheduler vs.
# the same workload as sequential per-request runs.
bench-sched:
	$(GO) test -run NONE -bench 'BenchmarkScheduler' -benchtime=20x ./internal/sched/

# Robustness-layer benchmarks behind BENCH_robust.json: the exact pass and
# the progressive drain with their error plumbing, plus the zero-fault cost
# of the chaos injector and an idle retry layer.
bench-robust:
	$(GO) test -run NONE -bench 'BenchmarkExactFallible|BenchmarkDrainFallible|BenchmarkZeroFaultInjector|BenchmarkIdleRetryLayer' -benchmem -benchtime=100x ./internal/core/

# Observability-overhead benchmarks behind BENCH_obs.json: the evaluation
# hot path with instrumentation compiled in but switched off (must match
# BENCH_core.json's schedule drain with zero extra allocations), armed with
# a live registry, with a per-run recorder (BenchmarkObsTracedDrain) or a
# profiled run, and through the instrumented store wrapper; plus the nil
# fast-path micro-benches of internal/obs (BenchmarkNilProfileRecordStep
# is the recorder's).
bench-obs:
	$(GO) test -run NONE -bench 'BenchmarkObs' -benchmem -benchtime=100x ./internal/core/
	$(GO) test -run NONE -bench 'BenchmarkNil|BenchmarkCounterInc|BenchmarkHistogramObserve' -benchmem ./internal/obs/

# Prepared-vs-ad-hoc load benchmark behind BENCH_load.json: wvqbench drives
# the in-process HTTP handler with 1024 concurrent streams per class, and the
# registry-hit microbenches show the zero-construction execute path.
bench-load:
	$(GO) test -run NONE -bench 'BenchmarkPlanRegistry' -benchmem -benchtime=100x ./internal/core/
	$(GO) run ./cmd/wvqbench -out BENCH_load.json

# Distributed-tier benchmarks behind BENCH_dist.json: progressive drain and
# exact evaluation through the 4-shard loopback coordinator vs the same
# work on the single-node store. Loopback on one host measures protocol +
# fan-out overhead only (shards share the coordinator's CPUs); see the
# honesty notes in BENCH_dist.json. The second line is a shard's set-up:
# BenchmarkOpenShardServer maps each .wvls file and works out shard 0 of 2's
# nonzero count and mass, what `wvqd -shard-listen` pays before it listens.
bench-dist:
	$(GO) test -run NONE -bench 'BenchmarkDist' -benchmem -benchtime=50x .
	$(GO) test -run NONE -bench 'BenchmarkOpenShardServer' -benchmem -benchtime=5x .

# Schedule-aware storage benchmarks behind BENCH_storage.json: a cold
# progressive drain over a mapped 10M-coefficient .wvls layout, dense and
# sparse, against a raw sequential-read bandwidth ceiling. The fixture build
# takes ~30s. The in-memory store's row comes from the next two lines: LoadDatabase of a ≈ 1.0 M- and a ≈ 6.3 M-
# coefficient dense .wvls (loaded as arrays) and a sparse one (a table),
# OpenShardServer of shard 0 of 2 of each file (mapped, what
# wvqd -shard-listen pays) and OpenLayout of each file (mapped, what
# wvqd -db pays, with or without -mvcc):
# seconds, bytes allocated, resident bytes/coefficient, and ns/key of the
# loaded store's lookups in schedule order and on uniform keys. The last line
# is the singleflight layer's cost to one caller, against the bare store.
bench-storage:
	$(GO) test -run NONE -bench 'BenchmarkStorage' -benchmem -benchtime=2x -timeout 30m ./internal/storage/layout/
	$(GO) test -run NONE -bench 'BenchmarkLoadDatabase|BenchmarkOpenShardServer|BenchmarkOpenLayout' -benchmem -benchtime=5x .
	$(GO) test -run NONE -bench 'BenchmarkStoreBatchGet' -benchtime=2000x .
	$(GO) test -run NONE -bench 'BenchmarkCoalescingBatchGet' -benchmem -benchtime=20000x ./internal/storage/

# Live-update write-path benchmarks behind BENCH_ingest.json: batched Apply
# vs one-tuple-per-version Apply (tuples/s at several batch sizes) and
# head-snapshot read latency (p50/p99) while a writer sustains 256-tuple
# batches.
bench-ingest:
	$(GO) test -run NONE -bench 'BenchmarkApply|BenchmarkReadLatencyUnderWrites' -benchmem -benchtime=2000x ./internal/mvcc/

# Full benchmark suite, including the paper figure/table regenerators.
bench-all:
	$(GO) test -run NONE -bench . -benchtime=100x ./...
