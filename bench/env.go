package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"repro"
)

// env is one invocation's working state: where the repository is, where
// binaries and outputs go, and the children it owns.
type env struct {
	root     string // repository root (holds go.mod of module repro)
	outDir   string // bench/out: logs, traces, result tables
	tmpDir   string // bench/out/tmp-<pid>: scratch, removed at exit
	binDir   string // .bench_build/bin
	seed     int64
	workload string // current workload, for log names
	started  int    // servers started so far, for log names
	procs    *procSet
}

// findRoot walks up from the working directory to the directory whose
// go.mod declares module repro; the benchmark runs from the root (run.sh)
// or from bench/ (go run -C bench .).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(data)), "module repro\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the repro repository: no go.mod declaring module repro above the working directory")
		}
		dir = parent
	}
}

func newEnv(seed int64) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{
		root:   root,
		outDir: filepath.Join(root, "bench", "out"),
		binDir: filepath.Join(root, ".bench_build", "bin"),
		seed:   seed,
		procs:  &procSet{},
	}
	e.tmpDir = filepath.Join(e.outDir, fmt.Sprintf("tmp-%d", os.Getpid()))
	for _, d := range []string{e.outDir, e.binDir, e.tmpDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	// Server logs are per invocation: the last one's are the ones to read.
	old, _ := filepath.Glob(filepath.Join(e.outDir, "*.log")) // the pattern is well formed
	for _, path := range old {
		_ = os.Remove(path) // a log that stays is only clutter
	}
	return e, nil
}

// cleanup stops every child and removes the scratch directory; it runs on
// success, failure and SIGINT.
func (e *env) cleanup() {
	e.procs.stopAll()
	_ = os.RemoveAll(e.tmpDir) // leftovers are reported by git status, not fatal
}

func (e *env) bin(name string) string { return filepath.Join(e.binDir, name) }

// buildBinaries compiles the shipped commands from the checkout's source
// into .bench_build/bin. run.sh points the Go build cache and the go
// command's temporary directory into the checkout as well.
func (e *env) buildBinaries(ctx context.Context) error {
	args := []string{"build", "-o", e.binDir + string(filepath.Separator),
		"./cmd/wvq", "./cmd/wvqd", "./cmd/wvload", "./cmd/wvlayout"}
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return nil
}

// reference answers queries in this process, from the same .wvdb file the
// servers load, through the public facade's plain Plan + Exact path: no
// registry, no scheduler, no progressive accumulation.
type reference struct {
	db *repro.Database
	// memo keeps each statement's answers: a pooled handle is checked a
	// hundred times a run, and its plan should be built once.
	memo map[string]map[string]float64
}

func loadReference(path string) (*reference, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	db, err := repro.LoadDatabase(f)
	if err != nil {
		return nil, fmt.Errorf("loading reference %s: %w", path, err)
	}
	return &reference{db: db, memo: map[string]map[string]float64{}}, nil
}

// expect returns the exact answer of every query of the statement, keyed
// by the query's label. Labels are how the server names results, and they
// are unique within a GROUP BY batch, so the comparison does not depend on
// the order the server returns results in (prepared handles answer in
// canonical order, inline batches in statement order).
func (r *reference) expect(stmt string) (map[string]float64, error) {
	if want, ok := r.memo[stmt]; ok {
		return want, nil
	}
	batch, err := repro.ParseBatch(r.db.Schema(), stmt)
	if err != nil {
		return nil, err
	}
	plan, err := r.db.Plan(batch)
	if err != nil {
		return nil, err
	}
	exact := r.db.Exact(plan)
	want := make(map[string]float64, len(batch))
	for i, q := range batch {
		want[q.Label] = exact[i]
	}
	if len(want) != len(batch) {
		return nil, fmt.Errorf("statement %q has duplicate query labels", stmt)
	}
	r.memo[stmt] = want
	return want, nil
}
