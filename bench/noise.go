package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// noiseRow is one metric on one workload over the repeated runs.
type noiseRow struct {
	Values []float64 `json:"values"`
	// MaxPairwiseRel is the largest disagreement between any two runs, as a
	// share of the smaller.
	MaxPairwiseRel float64 `json:"max_pairwise_rel"`
	Bound          float64 `json:"bound"`
	// Holds: no two runs of the same code disagree by more than half the
	// bound, so a difference of a whole bound is a change, not noise.
	Holds bool `json:"holds"`
}

// noise is the committed noise procedure (`-aa n`): every workload's timed
// run, n times over, on one seed and one set of fixtures, round-robin so
// that each workload's runs are spread over the whole procedure. It writes
// bench/NOISE.json and fails if two runs of any gated metric disagree by
// more than half its bound. setup_s is recorded and does not fail it: the
// driver's contract makes it a gated metric whatever its noise, and exempts
// its spread from the driver's own check in the same way. The ungated times
// are recorded too, against the bounds the issue gave them, to show how far
// from holding one they are (see the note on endToEnd).
func (e *env) noise(ctx context.Context, seconds float64, n int) error {
	fx, ref, err := e.prepare(ctx, workloads)
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	for rep := 0; rep < n; rep++ {
		for _, w := range workloads {
			res, err := e.runWith(ctx, w, fx, ref, seconds, false)
			if err != nil {
				return err
			}
			if res.failed > 0 {
				return fmt.Errorf("%s: %d of %d operations failed", w.name, res.failed, res.attempted)
			}
			for _, d := range append(append([]metricDef{}, endToEnd...), ungatedTimes...) {
				key := w.name + "/" + d.Name
				values[key] = append(values[key], res.metrics[d.Name].Value)
			}
			fmt.Fprintf(os.Stderr, "bench: -aa run %d of %d: %s done\n", rep+1, n, w.name)
		}
	}
	gated, ungated := map[string]noiseRow{}, map[string]noiseRow{}
	var loose []string
	for _, w := range workloads {
		for _, d := range endToEnd {
			key := w.name + "/" + d.Name
			gated[key] = newNoiseRow(values[key], d.Bound)
			if !gated[key].Holds && d.Name != "setup_s" {
				loose = append(loose, fmt.Sprintf("%s %.3f", key, gated[key].MaxPairwiseRel))
			}
		}
		for _, d := range ungatedTimes {
			key := w.name + "/" + d.Name
			ungated[key] = newNoiseRow(values[key], d.Bound)
		}
	}
	out := map[string]any{
		"procedure": fmt.Sprintf("-aa %d: one seed, one set of fixtures, %d timed runs of %v s per workload", n, n, seconds),
		"seed":      e.seed,
		"gated":     gated,
		"ungated":   ungated,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(e.root, "bench", "NOISE.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if len(loose) > 0 {
		return fmt.Errorf("same-code runs disagree by more than half the bound (see bench/NOISE.json): %v", loose)
	}
	return nil
}

func newNoiseRow(values []float64, bound float64) noiseRow {
	row := noiseRow{Values: values, MaxPairwiseRel: maxPairwiseRel(values), Bound: bound}
	row.Holds = row.MaxPairwiseRel <= bound/2
	return row
}
