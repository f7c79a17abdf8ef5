// Command bench is the repository's benchmark: it builds the fixtures with
// the shipped binaries, starts real wvqd processes on loopback ports, drives
// them from this one process over real sockets, checks every answer and
// reports time-to-first-estimate, time-to-bound and drain latency, with one
// row per layer underneath from a separate traced run. See README.md.
//
//	bash bench/run.sh --seed 1                       # all five workloads, both runs
//	bash bench/run.sh --workload adhoc_mem --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --aa 5                         # same-code noise → bench/NOISE.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and print the driver's JSON line (empty = all five, both runs)")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", runSeconds, "length of the measured pass")
		trace   = flag.Int("trace", 0, "with -workload: 0 = timed run (end-to-end metrics), 1 = traced run (per-layer metrics)")
		aa      = flag.Int("aa", 0, "run every workload's timed run N times on one seed and write bench/NOISE.json")
	)
	flag.Parse()
	runtime.GOMAXPROCS(generatorProcs)
	if pid := runningWvqd(); pid != 0 {
		fmt.Fprintf(os.Stderr, "bench: a wvqd is already running (pid %d); it would share the cores being measured\n", pid)
		os.Exit(1)
	}
	e, err := newEnv(*seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	// SIGINT and SIGTERM cancel the context; every blocking call below takes
	// it, so the run unwinds through the same cleanup as a failure does.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err = run(ctx, e, *name, *seconds, *trace, *aa)
	stop()
	e.cleanup()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errOpsFailed marks a run whose operations failed: the tables are printed,
// the exit code is not 0.
var errOpsFailed = errors.New("operations failed; see the FAILED lines above")

func run(ctx context.Context, e *env, name string, seconds float64, trace, aa int) error {
	if err := e.buildBinaries(ctx); err != nil {
		return err
	}
	if aa > 0 {
		return e.noise(ctx, seconds, aa)
	}
	ws := workloads
	if name != "" {
		w, ok := findWorkload(name)
		if !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		ws = []workload{w}
		// The driver gives a run 180 s; a hung server must become an error
		// here, with its log on disk, not a kill from outside.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, 150*time.Second)
		defer cancel()
	}
	fx, ref, err := e.prepare(ctx, ws)
	if err != nil {
		return err
	}
	if name != "" {
		res, err := e.runWith(ctx, ws[0], fx, ref, seconds, trace == 1)
		if err != nil {
			return err
		}
		printTable(res)
		return printDriverLine(res, trace == 1)
	}
	// All five workloads, one after another, never together: timed run then
	// traced run each, on fixtures built once.
	var all []*result
	failed := false
	for _, w := range ws {
		for _, traced := range []bool{false, true} {
			res, err := e.runWith(ctx, w, fx, ref, seconds, traced)
			if err != nil {
				return err
			}
			printTable(res)
			failed = failed || res.failed > 0
			all = append(all, res)
		}
	}
	if err := writeResults(filepath.Join(e.outDir, "results.json"), e.seed, all); err != nil {
		return err
	}
	if failed {
		return errOpsFailed
	}
	return nil
}

// prepare builds the fixtures the workloads need and loads the reference
// for the ones whose answers are checked against it.
func (e *env) prepare(ctx context.Context, ws []workload) (*fixtures, *reference, error) {
	fx, err := e.buildFixtures(ctx, ws)
	if err != nil {
		return nil, nil, err
	}
	var ref *reference
	if fx.temp5dDB != "" {
		if ref, err = loadReference(fx.temp5dDB); err != nil {
			return nil, nil, err
		}
	}
	return fx, ref, nil
}

func (e *env) runWith(ctx context.Context, w workload, fx *fixtures, ref *reference, seconds float64, traced bool) (*result, error) {
	if w.fixture != "temp5d" {
		ref = nil
	}
	var res *result
	var err error
	if traced {
		res, err = e.runTraced(ctx, w, fx, ref, seconds)
	} else {
		res, err = e.runTimed(ctx, w, fx, ref, seconds)
	}
	e.procs.stopAll()
	if err != nil {
		return nil, err
	}
	for _, f := range res.failures {
		fmt.Fprintf(os.Stderr, "bench: %s: FAILED %s\n", w.name, f)
	}
	return res, nil
}

// printTable prints every metric as `workload/metric value unit`.
func printTable(res *result) {
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.metrics[n]
		fmt.Printf("%s/%s %.6g %s\n", res.workload, n, m.Value, m.Unit)
	}
	fmt.Printf("%s/ops_attempted %d count\n%s/ops_failed %d count\n%s/fail_ratio %.6g ratio\n",
		res.workload, res.attempted, res.workload, res.failed, res.workload, float64(res.failed)/float64(max(res.attempted, 1)))
}

// printDriverLine prints the one JSON object the driver reads, last: every
// end_to_end metric of a timed run, every per_layer metric of a traced one.
func printDriverLine(res *result, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	metrics := make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := res.metrics[d.Name]
		if !ok {
			return fmt.Errorf("%s: the run did not report %s", res.workload, d.Name)
		}
		metrics[d.Name] = m
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	if res.failed > 0 {
		return errOpsFailed
	}
	return nil
}
