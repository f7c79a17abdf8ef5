// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6) on the synthetic temperature dataset:
//
//   - Observation 1: the I/O-sharing table (per-query vs batched retrievals,
//     for both the wavelet and the prefix-sum strategies);
//   - Figures 2–4: B-term approximations of a typical degree-1 range-sum
//     query vector (25 / 150 / all Db4 wavelets);
//   - Figure 5: progressive mean relative error vs coefficients retrieved;
//   - Figures 6–7: normalized SSE and normalized cursored SSE for the
//     SSE-optimized and cursored-optimized progressions.
//
// Each experiment returns a typed result that cmd/experiments renders as a
// table and bench_test.go exposes as benchmark metrics. EXPERIMENTS.md
// records paper-vs-measured values.
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/wavelet"
)

// Config sizes the temperature workload shared by Observation 1 and Figures
// 5–7. The paper partitions the (latitude, longitude, altitude, time)
// subdomain into 512 randomly sized ranges and sums temperature in each; we
// do the same over the synthetic dataset.
type Config struct {
	// Temperature parameterizes the dataset generator.
	Temperature dataset.TemperatureConfig
	// NumRanges is the partition size (512 in the paper).
	NumRanges int
	// PartitionSeed makes the random partition reproducible.
	PartitionSeed int64
	// Filter is the wavelet filter (Db4 in the paper).
	Filter *wavelet.Filter
	// CursorSize and CursorWeight configure the cursored penalty of Figures
	// 6–7: CursorSize neighboring ranges weighted CursorWeight× the rest
	// (20 ranges at 10× in the paper).
	CursorSize   int
	CursorWeight float64
}

// DefaultConfig is the full reproduction scale: 512 ranges over a
// 16×16×4×16×16 domain with 500k records. One run takes a few seconds.
func DefaultConfig() Config {
	return Config{
		Temperature: dataset.TemperatureConfig{
			Records: 500_000,
			LatBins: 16, LonBins: 16, AltBins: 4, TimeBins: 16, TempBins: 16,
			Seed: 1,
		},
		NumRanges:     512,
		PartitionSeed: 2,
		Filter:        wavelet.Db4,
		CursorSize:    20,
		CursorWeight:  10,
	}
}

// QuickConfig is a smaller configuration for tests and benchmarks.
func QuickConfig() Config {
	return Config{
		Temperature: dataset.TemperatureConfig{
			Records: 20_000,
			LatBins: 8, LonBins: 8, AltBins: 4, TimeBins: 8, TempBins: 8,
			Seed: 1,
		},
		NumRanges:     64,
		PartitionSeed: 2,
		Filter:        wavelet.Db4,
		CursorSize:    8,
		CursorWeight:  10,
	}
}

func (c Config) validate() error {
	if c.NumRanges < 2 {
		return fmt.Errorf("experiments: need at least 2 ranges, got %d", c.NumRanges)
	}
	if c.Filter == nil {
		return fmt.Errorf("experiments: nil filter")
	}
	if c.CursorSize < 1 || c.CursorSize > c.NumRanges {
		return fmt.Errorf("experiments: cursor size %d invalid for %d ranges", c.CursorSize, c.NumRanges)
	}
	if c.CursorWeight <= 1 {
		return fmt.Errorf("experiments: cursor weight must exceed 1, got %g", c.CursorWeight)
	}
	return nil
}

// Workload bundles everything the experiments share: the dataset, the
// SUM(temperature) partition batch, its wavelet plan, the populated store,
// and exact ground truth.
type Workload struct {
	Config      Config
	Schema      *dataset.Schema
	RangeSchema *dataset.Schema // the 4 partitioned dimensions
	Dist        *dataset.Distribution
	Ranges4     []query.Range // partition of the 4-D subdomain
	Ranges      []query.Range // extended over the full temperature extent
	Batch       query.Batch
	Plan        *core.Plan
	Store       *storage.SparseStore
	Truth       []float64
}

// BuildWorkload generates the dataset and constructs the shared workload.
// The partition covers (lat, lon, alt, time); every range spans the full
// temperature dimension, as in the paper's SUM(temperature) batch.
func BuildWorkload(cfg Config) (*Workload, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	dist, err := dataset.Temperature(cfg.Temperature)
	if err != nil {
		return nil, err
	}
	schema := dist.Schema
	rangeSchema, err := dataset.NewSchema(schema.Names[:4], schema.Sizes[:4])
	if err != nil {
		return nil, err
	}
	ranges4, err := query.RandomPartition(rangeSchema, cfg.NumRanges, cfg.PartitionSeed)
	if err != nil {
		return nil, err
	}
	tempBins := schema.Sizes[4]
	ranges := make([]query.Range, len(ranges4))
	batch := make(query.Batch, len(ranges4))
	for i, r4 := range ranges4 {
		lo := append(append([]int{}, r4.Lo...), 0)
		hi := append(append([]int{}, r4.Hi...), tempBins-1)
		r, err := query.NewRange(schema, lo, hi)
		if err != nil {
			return nil, err
		}
		ranges[i] = r
		q, err := query.Sum(schema, r, dataset.AttrTemperature)
		if err != nil {
			return nil, err
		}
		batch[i] = q
	}
	plan, err := core.NewWaveletPlan(batch, cfg.Filter)
	if err != nil {
		return nil, err
	}
	hat, err := dist.Transform(cfg.Filter)
	if err != nil {
		return nil, err
	}
	return &Workload{
		Config:      cfg,
		Schema:      schema,
		RangeSchema: rangeSchema,
		Dist:        dist,
		Ranges4:     ranges4,
		Ranges:      ranges,
		Batch:       batch,
		Plan:        plan,
		Store:       storage.NewSparseStoreFromDense(hat),
		Truth:       batch.EvaluateDirect(dist),
	}, nil
}

// Checkpoints returns the power-of-two retrieval counts 1,2,4,… up to max —
// the horizontal axis of the paper's log-log figures.
func Checkpoints(max int) []int {
	var out []int
	for p := 1; p < max; p *= 2 {
		out = append(out, p)
	}
	out = append(out, max)
	return out
}

// SeriesPoint is one (retrieved, value) sample of a progressive metric.
type SeriesPoint struct {
	Retrieved int
	Value     float64
}
