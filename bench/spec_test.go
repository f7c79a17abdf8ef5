package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in metrics.go")

// benchmarkSpec is the content of BENCHMARK.json: exactly the keys the
// driver's contract names.
func benchmarkSpec() map[string]any {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var ws []wl
	for _, w := range workloads {
		ws = append(ws, wl{w.name, w.why})
	}
	var es []e2e
	for _, d := range endToEnd {
		es = append(es, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	var ls []layer
	for _, d := range perLayer {
		ls = append(ls, layer{d.Name, d.Unit, d.Better})
	}
	return map[string]any{
		"command":     []string{"bash", "bench/run.sh"},
		"paths":       []string{"bench"},
		"run_seconds": runSeconds,
		"workloads":   ws,
		"end_to_end":  es,
		"per_layer":   ls,
	}
}

// The committed BENCHMARK.json must not drift from the tables in metrics.go
// and workload.go; `go test -run Spec -update` rewrites it.
func TestSpecMatchesTheTables(t *testing.T) {
	want, err := json.MarshalIndent(benchmarkSpec(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	const path = "../BENCHMARK.json"
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s is stale; rewrite it with: go test -run Spec -update", path)
	}
}

// The limits the driver's contract puts on BENCHMARK.json.
func TestSpecWithinTheContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, contract allows 2–8", len(workloads))
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	if len(endToEnd) < 1 || len(endToEnd) > 16 || len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, contract allows 1–16 and 1–128", len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for _, d := range endToEnd {
		check(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end needs setup_s in s, lower is better")
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q is outside the contract", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range perLayer {
		check(d.Name)
		for _, m := range d.Moves {
			if _, ok := metricByName[m.Metric]; !ok {
				t.Errorf("%s moves unknown metric %q", d.Name, m.Metric)
			}
			if _, ok := findWorkload(m.Workload); !ok {
				t.Errorf("%s moves %s on unknown workload %q", d.Name, m.Metric, m.Workload)
			}
		}
		for _, w := range d.BypassedOn {
			if _, ok := findWorkload(w); !ok {
				t.Errorf("%s bypassed on unknown workload %q", d.Name, w)
			}
		}
	}
	// 4 + 22 runs per workload must fit 3420 s with builds: see README
	// "Run time".
	if runSeconds < 1 || runSeconds > 60 {
		t.Errorf("run_seconds %d outside 1–60", runSeconds)
	}
}

// A real-process run, one second per pass, on the small fixture. It needs
// the go toolchain and two free cores, so it is opt-in.
func TestSmoke(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") == "" {
		t.Skip("set BENCH_SMOKE=1 to start real wvqd processes")
	}
	cmd := exec.Command("bash", "run.sh", "--workload", "mvcc_rw", "--seed", "3", "--seconds", "3", "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("run.sh: %v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var line struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not the driver's JSON object: %v\n%s", err, lines[len(lines)-1])
	}
	if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
		t.Errorf("run not correct: %+v", line)
	}
	for _, d := range endToEnd {
		if m, ok := line.Metrics[d.Name]; !ok || m.Value <= 0 || m.Unit != d.Unit {
			t.Errorf("metric %s = %+v, want a positive value in %s", d.Name, m, d.Unit)
		}
	}
	if len(line.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics with --trace 0, want exactly the %d end-to-end ones", len(line.Metrics), len(endToEnd))
	}
}
