package repro

// This file is the benchmark harness required by DESIGN.md §4: one bench per
// paper table/figure (Observation 1, Figures 2–7), plus the ablation benches
// of DESIGN.md §5. Experiment benches report their headline numbers as
// benchmark metrics (retrievals/op, error levels), so
//
//	go test -bench=. -benchmem
//
// regenerates the paper's quantities alongside wall-clock costs. The benches
// run on the quick workload so the whole suite stays fast; run
// cmd/experiments for the full 512-range scale.

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/linstrat"
	"repro/internal/penalty"
	"repro/internal/poly"
	"repro/internal/query"
	"repro/internal/sparse"
	"repro/internal/storage"
	"repro/internal/wavelet"
)

var (
	benchWorkloadOnce sync.Once
	benchWorkload     *experiments.Workload
	benchWorkloadErr  error
)

func sharedBenchWorkload(b *testing.B) *experiments.Workload {
	b.Helper()
	benchWorkloadOnce.Do(func() {
		benchWorkload, benchWorkloadErr = experiments.BuildWorkload(experiments.QuickConfig())
	})
	if benchWorkloadErr != nil {
		b.Fatal(benchWorkloadErr)
	}
	return benchWorkload
}

// BenchmarkObs1IOSharing regenerates the Observation 1 table. Metrics:
// wavelet retrievals with and without sharing, and the sharing factors.
func BenchmarkObs1IOSharing(b *testing.B) {
	w := sharedBenchWorkload(b)
	var res *experiments.Obs1Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunObs1(w)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.WaveletPerQuery), "retr-perquery")
	b.ReportMetric(float64(res.WaveletBatch), "retr-batched")
	b.ReportMetric(res.WaveletSharing, "sharing-x")
	b.ReportMetric(float64(res.PrefixPerQuery), "prefix-perquery")
	b.ReportMetric(float64(res.PrefixBatch), "prefix-batched")
}

// BenchmarkFig234QueryApprox regenerates the Figures 2–4 B-term
// approximation table. Metrics: the relative L2 errors at B=25 and B=150 and
// the total nonzero coefficient count (paper: 837).
func BenchmarkFig234QueryApprox(b *testing.B) {
	var res *experiments.Fig234Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunFig234()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.TotalNonzero), "nonzeros")
	b.ReportMetric(res.Rows[0].RelL2, "relL2@25")
	b.ReportMetric(res.Rows[1].RelL2, "relL2@150")
}

// BenchmarkFig5MeanRelativeError regenerates the Figure 5 decay series.
// Metrics: the mean relative error at ~1 retrieval/query and at 10% of the
// master list.
func BenchmarkFig5MeanRelativeError(b *testing.B) {
	w := sharedBenchWorkload(b)
	var series []experiments.Fig5Point
	var err error
	for i := 0; i < b.N; i++ {
		series, err = experiments.RunFig5(w)
		if err != nil {
			b.Fatal(err)
		}
	}
	var atQuery, atTenth experiments.Fig5Point
	tenth := w.Plan.DistinctCoefficients() / 10
	for _, p := range series {
		if p.Retrieved <= len(w.Batch) {
			atQuery = p
		}
		if p.Retrieved <= tenth {
			atTenth = p
		}
	}
	b.ReportMetric(atQuery.MeanRel, "meanrel@1perq")
	b.ReportMetric(atTenth.MeanRel, "meanrel@10pct")
	b.ReportMetric(atTenth.TotalRel, "totalrel@10pct")
}

// BenchmarkFig67Penalties regenerates the Figures 6–7 penalty curves.
// Metrics: the retrieval counts at which each progression pushes its own
// normalized penalty below 1e-2.
func BenchmarkFig67Penalties(b *testing.B) {
	w := sharedBenchWorkload(b)
	var res *experiments.Fig67Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.RunFig67(w)
		if err != nil {
			b.Fatal(err)
		}
	}
	firstBelow := func(vals []float64, tol float64) float64 {
		for i, v := range vals {
			if v <= tol {
				return float64(res.Retrieved[i])
			}
		}
		return float64(res.Retrieved[len(res.Retrieved)-1])
	}
	b.ReportMetric(firstBelow(res.SSEOptimizedNormSSE, 1e-2), "sse-opt@1e-2")
	b.ReportMetric(firstBelow(res.CursorOptimizedNormCursored, 1e-2), "cur-opt@1e-2")
}

// BenchmarkDataVsQueryApprox regenerates the query-approximation vs
// data-approximation comparison (the paper's Section 1.1/2.1 argument).
// Metrics: total relative error of each approach at 10% of the budget.
func BenchmarkDataVsQueryApprox(b *testing.B) {
	w := sharedBenchWorkload(b)
	var rows []experiments.DataVsQueryRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.RunDataVsQueryApprox(w)
		if err != nil {
			b.Fatal(err)
		}
	}
	tenth := w.Plan.DistinctCoefficients() / 10
	var at experiments.DataVsQueryRow
	for _, r := range rows {
		if r.B <= tenth {
			at = r
		}
	}
	b.ReportMetric(at.QueryTotalRel, "query-totrel@10pct")
	b.ReportMetric(at.DataTotalRel, "data-totrel@10pct")
}

// BenchmarkLayoutStudy regenerates the disk-layout comparison. Metrics: the
// block counts for the natural and workload-aware layouts.
func BenchmarkLayoutStudy(b *testing.B) {
	w := sharedBenchWorkload(b)
	var rows []experiments.LayoutRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.RunLayoutStudy(w, 64)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.Name {
		case "natural":
			b.ReportMetric(float64(r.BlocksAt10Pct), "natural@10pct")
		case "importance":
			b.ReportMetric(float64(r.BlocksAt10Pct), "importance@10pct")
		}
	}
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkAblationQueryTransform compares the lazy piecewise-polynomial
// query transform against the dense-DWT oracle at growing domain sizes: the
// lazy path should be roughly flat in n while the dense path grows linearly.
func BenchmarkAblationQueryTransform(b *testing.B) {
	p := poly.New(0, 1)
	for _, n := range []int{1 << 10, 1 << 14, 1 << 18} {
		a, bd := n/5, 4*n/5
		b.Run(sizeName("lazy", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := wavelet.Db4.QueryTransform(p, a, bd, n); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(sizeName("dense", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := wavelet.Db4.QueryTransformDense(p, a, bd, n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationProgressionOrder compares the three progression
// strategies over one plan: heap-ordered Batch-Biggest-B, the unordered
// exact pass, and the unshared round-robin baseline.
func BenchmarkAblationProgressionOrder(b *testing.B) {
	w := sharedBenchWorkload(b)
	vectors := make([]sparse.Vector, len(w.Batch))
	for i, q := range w.Batch {
		v, err := q.Coefficients(w.Config.Filter)
		if err != nil {
			b.Fatal(err)
		}
		vectors[i] = v
	}
	b.Run("heap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run := core.NewRun(w.Plan, penalty.SSE{}, w.Store)
			run.RunToCompletion()
		}
	})
	b.Run("masterlist", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w.Plan.Exact(w.Store)
		}
	})
	b.Run("roundrobin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rr, err := core.NewRoundRobin(vectors, w.Store)
			if err != nil {
				b.Fatal(err)
			}
			rr.RunToCompletion()
		}
	})
}

// BenchmarkAblationStore compares array- vs hash-backed coefficient storage
// under the same exact evaluation.
func BenchmarkAblationStore(b *testing.B) {
	w := sharedBenchWorkload(b)
	hat, err := w.Dist.Transform(w.Config.Filter)
	if err != nil {
		b.Fatal(err)
	}
	arr := storage.NewArrayStore(hat)
	hash := storage.NewHashStoreFromDense(hat, 0)
	b.Run("array", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w.Plan.Exact(arr)
		}
	})
	b.Run("hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w.Plan.Exact(hash)
		}
	})
}

// BenchmarkAblationFilters compares plan size and construction time across
// filters on a COUNT batch (all filters support degree 0). Longer filters
// buy vanishing moments at the cost of denser query rewritings.
func BenchmarkAblationFilters(b *testing.B) {
	schema := dataset.MustSchema([]string{"x", "y", "z"}, []int{32, 32, 16})
	ranges, err := query.RandomPartition(schema, 32, 5)
	if err != nil {
		b.Fatal(err)
	}
	batch := query.CountBatch(schema, ranges)
	for _, f := range []*wavelet.Filter{wavelet.Haar, wavelet.Db4, wavelet.Db6, wavelet.Db8} {
		b.Run(f.Name, func(b *testing.B) {
			var plan *core.Plan
			for i := 0; i < b.N; i++ {
				plan, err = core.NewWaveletPlan(batch, f)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(plan.DistinctCoefficients()), "distinct")
			b.ReportMetric(float64(plan.TotalQueryCoefficients()), "total")
		})
	}
}

// BenchmarkAblationDecomposition compares query-rewriting density and time
// under the standard (dimension-by-dimension) and nonstandard
// (simultaneous-dimension) decompositions — quantifying why the paper uses
// the standard form for query approximation.
func BenchmarkAblationDecomposition(b *testing.B) {
	schema := dataset.MustSchema([]string{"x", "y"}, []int{256, 256})
	r, err := query.NewRange(schema, []int{25, 32}, []int{204, 224})
	if err != nil {
		b.Fatal(err)
	}
	q := query.Count(schema, r)
	strategies := []linstrat.Strategy{
		linstrat.Wavelet{Filter: wavelet.Haar},
		linstrat.NonstandardWavelet{Filter: wavelet.Haar},
	}
	for _, s := range strategies {
		b.Run(s.Name(), func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				vec, err := s.RewriteQuery(q)
				if err != nil {
					b.Fatal(err)
				}
				size = len(vec)
			}
			b.ReportMetric(float64(size), "coefficients")
		})
	}
}

// BenchmarkUpdateCost compares incremental single-tuple maintenance against
// a full bulk re-transform — the update-efficiency claim of Section 2.1.
func BenchmarkUpdateCost(b *testing.B) {
	schema := dataset.MustSchema([]string{"x", "y", "z"}, []int{64, 64, 32})
	dist := dataset.Uniform(schema, 10000, 3)
	store := storage.NewHashStore()
	coords := []int{10, 20, 5}
	b.Run("insert-incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := core.InsertTuple(store, wavelet.Db4, schema.Sizes, coords); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebuild-bulk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dist.Transform(wavelet.Db4); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func sizeName(kind string, n int) string {
	switch {
	case n >= 1<<20:
		return kind + "/n=1M"
	case n >= 1<<18:
		return kind + "/n=256k"
	case n >= 1<<14:
		return kind + "/n=16k"
	default:
		return kind + "/n=1k"
	}
}
