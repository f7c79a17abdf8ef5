package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/penalty"
	"repro/internal/storage"
)

// The paper's framing (Sections 1–2): earlier wavelet AQP work compresses
// the *data* — keep the B largest coefficients of Δ̂ as a synopsis and
// answer everything exactly against it — whereas Batch-Biggest-B
// approximates the *query*, streaming the most important coefficients for
// the batch at hand. This experiment puts the two head-to-head at equal
// coefficient budget B. Data approximation is at the mercy of the data
// having a good B-term approximation; query approximation adapts to the
// workload and converges to exact.

// DataVsQueryRow compares the approaches at one budget B (stored or
// retrieved values).
type DataVsQueryRow struct {
	B int
	// Query approximation: progressive run stopped after B retrievals.
	QueryMeanRel, QueryTotalRel float64
	// Data approximation: exact evaluation against the B-largest-coefficient
	// synopsis of Δ̂.
	DataMeanRel, DataTotalRel float64
	// Histogram synopsis of ≈B stored values (equi-width buckets with
	// per-bucket count and attribute sums); HistStored is its actual size.
	HistStored                int
	HistMeanRel, HistTotalRel float64
	// Uniform tuple sample of ≈B stored values, scaled up.
	SampleMeanRel, SampleTotalRel float64
}

// RunDataVsQueryApprox measures both curves over the shared workload at
// power-of-two budgets.
func RunDataVsQueryApprox(w *Workload) ([]DataVsQueryRow, error) {
	// Rank the data coefficients once, biggest first.
	type pair struct {
		k int
		v float64
	}
	var coeffs []pair
	if err := w.Store.Walk(func(k int, v float64) bool {
		coeffs = append(coeffs, pair{k, v})
		return true
	}); err != nil {
		return nil, fmt.Errorf("experiments: ranking the data coefficients: %w", err)
	}
	sort.Slice(coeffs, func(i, j int) bool {
		ai, aj := abs64(coeffs[i].v), abs64(coeffs[j].v)
		if ai != aj {
			return ai > aj
		}
		return coeffs[i].k < coeffs[j].k
	})

	budgets := Checkpoints(w.Plan.DistinctCoefficients())
	rows := make([]DataVsQueryRow, 0, len(budgets))

	// Query-approximation curve from one progressive run.
	run := core.NewRun(w.Plan, penalty.SSE{}, w.Store)
	queryMean := map[int]float64{}
	queryTotal := map[int]float64{}
	run.RunWithCheckpoints(budgets, func(retrieved int, est []float64) {
		queryMean[retrieved] = meanRelativeError(est, w.Truth)
		queryTotal[retrieved] = totalRelativeError(est, w.Truth)
	})

	// Baseline synopses: one full-size sample reused via prefixes, and a
	// histogram rebuilt per budget.
	maxSampleTuples := budgets[len(budgets)-1] / w.Schema.NumDims()
	if maxSampleTuples < 1 {
		maxSampleTuples = 1
	}
	sample, err := baseline.NewSample(w.Dist, maxSampleTuples, 99)
	if err != nil {
		return nil, err
	}

	for _, b := range budgets {
		keep := b
		if keep > len(coeffs) {
			keep = len(coeffs)
		}
		synopsis := storage.NewHashStore()
		for _, p := range coeffs[:keep] {
			synopsis.Add(p.k, p.v)
		}
		est, err := w.Plan.Exact(context.Background(), synopsis)
		if err != nil {
			return nil, err
		}
		row := DataVsQueryRow{
			B:            b,
			QueryMeanRel: queryMean[b], QueryTotalRel: queryTotal[b],
			DataMeanRel: meanRelativeError(est, w.Truth), DataTotalRel: totalRelativeError(est, w.Truth),
		}

		// Histogram of ≈b stored values.
		shape := histogramShape(w.Schema.Sizes, b/(1+w.Schema.NumDims()))
		hist, err := baseline.NewHistogram(w.Dist, shape)
		if err != nil {
			return nil, err
		}
		row.HistStored = hist.StoredValues()
		hEst := make([]float64, len(w.Batch))
		for i, q := range w.Batch {
			v, err := hist.Estimate(q)
			if err != nil {
				return nil, err
			}
			hEst[i] = v
		}
		row.HistMeanRel = meanRelativeError(hEst, w.Truth)
		row.HistTotalRel = totalRelativeError(hEst, w.Truth)

		// Sample prefix of ≈b stored values.
		prefix := b / w.Schema.NumDims()
		if prefix < 1 {
			prefix = 1
		}
		sEst := make([]float64, len(w.Batch))
		for i, q := range w.Batch {
			v, err := sample.Estimate(q, prefix)
			if err != nil {
				return nil, err
			}
			sEst[i] = v
		}
		row.SampleMeanRel = meanRelativeError(sEst, w.Truth)
		row.SampleTotalRel = totalRelativeError(sEst, w.Truth)

		rows = append(rows, row)
	}
	return rows, nil
}

// histogramShape greedily doubles per-dimension bucket counts until the
// bucket total reaches target (or every dimension is fully resolved).
func histogramShape(sizes []int, target int) []int {
	shape := make([]int, len(sizes))
	for i := range shape {
		shape[i] = 1
	}
	total := 1
	for total < target {
		grew := false
		for i := range shape {
			if shape[i]*2 <= sizes[i] && total < target {
				shape[i] *= 2
				total *= 2
				grew = true
			}
		}
		if !grew {
			break
		}
	}
	return shape
}

func abs64(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// WriteDataVsQueryTable renders the comparison.
func WriteDataVsQueryTable(out io.Writer, rows []DataVsQueryRow) {
	fmt.Fprintln(out, "Approximation strategies at equal budget B (total relative error):")
	fmt.Fprintln(out, "  query  = Batch-Biggest-B stopped after B retrievals (this paper)")
	fmt.Fprintln(out, "  data   = exact evaluation over the B-largest-coefficient wavelet synopsis")
	fmt.Fprintln(out, "  hist   = equi-width histogram of ≈B stored values")
	fmt.Fprintln(out, "  sample = uniform tuple sample of ≈B stored values (online aggregation)")
	fmt.Fprintf(out, "  %10s | %12s %12s %12s %12s\n",
		"B", "query", "data", "hist", "sample")
	for _, r := range rows {
		fmt.Fprintf(out, "  %10d | %12.5g %12.5g %12.5g %12.5g\n",
			r.B, r.QueryTotalRel, r.DataTotalRel, r.HistTotalRel, r.SampleTotalRel)
	}
}
