package stats

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/penalty"
	"repro/internal/query"
	"repro/internal/storage"
	"repro/internal/wavelet"
)

// dataGaussian produces clustered (hence correlated) test data.
func dataGaussian(t *testing.T, schema *dataset.Schema) *dataset.Distribution {
	t.Helper()
	d, err := dataset.GaussianClusters(schema, 3000, 2, 0.08, 7)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewMomentSetLayout(t *testing.T) {
	schema := dataset.MustSchema([]string{"a", "b"}, []int{8, 8})
	ranges, err := query.GridPartition(schema, []int{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMomentSet(schema, ranges, []string{"a", "b"}, true)
	if err != nil {
		t.Fatal(err)
	}
	// per range: 1 count + 2 sums + 2 sumsq + 1 cross = 6.
	if m.PerRange() != 6 {
		t.Fatalf("PerRange = %d", m.PerRange())
	}
	if len(m.Batch) != 12 {
		t.Fatalf("batch size = %d", len(m.Batch))
	}
	mNoCov, err := NewMomentSet(schema, ranges, []string{"a"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if mNoCov.PerRange() != 3 {
		t.Fatalf("PerRange without cov = %d", mNoCov.PerRange())
	}
}

func TestNewMomentSetValidation(t *testing.T) {
	schema := dataset.MustSchema([]string{"a"}, []int{8})
	if _, err := NewMomentSet(schema, nil, []string{"a"}, false); err == nil {
		t.Error("no ranges should fail")
	}
	r := query.FullDomain(schema)
	if _, err := NewMomentSet(schema, []query.Range{r}, nil, false); err == nil {
		t.Error("no attrs should fail")
	}
	if _, err := NewMomentSet(schema, []query.Range{r}, []string{"zzz"}, false); err == nil {
		t.Error("unknown attr should fail")
	}
}

func TestStatisticsMatchBruteForce(t *testing.T) {
	schema := dataset.MustSchema([]string{"a", "b"}, []int{16, 16})
	dist := dataGaussian(t, schema)
	ranges, err := query.GridPartition(schema, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMomentSet(schema, ranges, []string{"a", "b"}, true)
	if err != nil {
		t.Fatal(err)
	}
	results := m.Batch.EvaluateDirect(dist)

	// Brute-force moments per range.
	for ri, r := range ranges {
		var n, sa, sb, saa, sbb, sab float64
		coords := make([]int, 2)
		for x := r.Lo[0]; x <= r.Hi[0]; x++ {
			for y := r.Lo[1]; y <= r.Hi[1]; y++ {
				coords[0], coords[1] = x, y
				c := dist.At(coords)
				n += c
				sa += c * float64(x)
				sb += c * float64(y)
				saa += c * float64(x) * float64(x)
				sbb += c * float64(y) * float64(y)
				sab += c * float64(x) * float64(y)
			}
		}
		gotC, err := m.Count(results, ri)
		if err != nil || gotC != n {
			t.Fatalf("range %d count %g want %g (%v)", ri, gotC, n, err)
		}
		if n == 0 {
			continue
		}
		avg, ok := m.Average(results, ri, "a", 1)
		if !ok || math.Abs(avg-sa/n) > 1e-9 {
			t.Fatalf("range %d avg %g want %g", ri, avg, sa/n)
		}
		v, ok := m.Variance(results, ri, "b", 1)
		wantV := sbb/n - (sb/n)*(sb/n)
		if !ok || math.Abs(v-wantV) > 1e-9*(1+wantV) {
			t.Fatalf("range %d var %g want %g", ri, v, wantV)
		}
		cov, ok := m.Covariance(results, ri, "a", "b", 1)
		wantCov := sab/n - (sa/n)*(sb/n)
		if !ok || math.Abs(cov-wantCov) > 1e-9*(1+math.Abs(wantCov)) {
			t.Fatalf("range %d cov %g want %g", ri, cov, wantCov)
		}
	}
}

func TestCorrelationDetectsClusterDiagonal(t *testing.T) {
	// GaussianClusters ties both attributes to the same cluster center, so
	// the full-domain correlation should be clearly positive.
	schema := dataset.MustSchema([]string{"a", "b"}, []int{16, 16})
	dist := dataGaussian(t, schema)
	m, err := NewMomentSet(schema, []query.Range{query.FullDomain(schema)}, []string{"a", "b"}, true)
	if err != nil {
		t.Fatal(err)
	}
	results := m.Batch.EvaluateDirect(dist)
	rho, ok := m.Correlation(results, 0, "a", "b", 1)
	if !ok {
		t.Fatal("correlation not computable")
	}
	if math.Abs(rho) > 1.0000001 {
		t.Fatalf("correlation %g outside [-1,1]", rho)
	}
}

func TestSumProductSymmetryAndSelf(t *testing.T) {
	schema := dataset.MustSchema([]string{"a", "b"}, []int{8, 8})
	dist := dataGaussian(t, schema)
	m, err := NewMomentSet(schema, []query.Range{query.FullDomain(schema)}, []string{"a", "b"}, true)
	if err != nil {
		t.Fatal(err)
	}
	results := m.Batch.EvaluateDirect(dist)
	ab, err := m.SumProduct(results, 0, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	ba, err := m.SumProduct(results, 0, "b", "a")
	if err != nil {
		t.Fatal(err)
	}
	if ab != ba {
		t.Fatalf("SumProduct not symmetric: %g vs %g", ab, ba)
	}
	aa, err := m.SumProduct(results, 0, "a", "a")
	if err != nil {
		t.Fatal(err)
	}
	sq, err := m.SumSquares(results, 0, "a")
	if err != nil {
		t.Fatal(err)
	}
	if aa != sq {
		t.Fatalf("self product %g != sum of squares %g", aa, sq)
	}
}

func TestSumProductRequiresCovariance(t *testing.T) {
	schema := dataset.MustSchema([]string{"a", "b"}, []int{8, 8})
	m, err := NewMomentSet(schema, []query.Range{query.FullDomain(schema)}, []string{"a", "b"}, false)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]float64, len(m.Batch))
	if _, err := m.SumProduct(results, 0, "a", "b"); err == nil {
		t.Error("SumProduct without covariance queries should fail")
	}
}

func TestIndexErrors(t *testing.T) {
	schema := dataset.MustSchema([]string{"a"}, []int{8})
	m, err := NewMomentSet(schema, []query.Range{query.FullDomain(schema)}, []string{"a"}, false)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]float64, len(m.Batch))
	if _, err := m.Count(results, 5); err == nil {
		t.Error("range index out of bounds should fail")
	}
	if _, err := m.Sum(results, 0, "zzz"); err == nil {
		t.Error("unknown attribute should fail")
	}
}

func TestStatisticsErrorPaths(t *testing.T) {
	schema := dataset.MustSchema([]string{"a", "b"}, []int{8, 8})
	m, err := NewMomentSet(schema, []query.Range{query.FullDomain(schema)}, []string{"a", "b"}, true)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]float64, len(m.Batch))
	// Unknown attributes and bad range indexes flow through every accessor.
	if _, err := m.SumSquares(results, 0, "zzz"); err == nil {
		t.Error("SumSquares with unknown attr should fail")
	}
	if _, err := m.SumSquares(results, 9, "a"); err == nil {
		t.Error("SumSquares with bad range should fail")
	}
	if _, err := m.SumProduct(results, 0, "zzz", "a"); err == nil {
		t.Error("SumProduct with unknown attrI should fail")
	}
	if _, err := m.SumProduct(results, 0, "a", "zzz"); err == nil {
		t.Error("SumProduct with unknown attrJ should fail")
	}
	if _, err := m.SumProduct(results, 3, "a", "b"); err == nil {
		t.Error("SumProduct with bad range should fail")
	}
	if _, ok := m.Average(results, 9, "a", 1); ok {
		t.Error("Average with bad range should not be ok")
	}
	if _, ok := m.Average(results, 0, "zzz", 1); ok {
		t.Error("Average with unknown attr should not be ok")
	}
	if _, ok := m.Variance(results, 9, "a", 1); ok {
		t.Error("Variance with bad range should not be ok")
	}
	if _, ok := m.Variance(results, 0, "zzz", 1); ok {
		t.Error("Variance with unknown attr should not be ok")
	}
	if _, ok := m.Covariance(results, 9, "a", "b", 1); ok {
		t.Error("Covariance with bad range should not be ok")
	}
	if _, ok := m.Covariance(results, 0, "zzz", "b", 1); ok {
		t.Error("Covariance with unknown attr should not be ok")
	}
	if _, ok := m.Correlation(results, 9, "a", "b", 1); ok {
		t.Error("Correlation with bad range should not be ok")
	}
	// Zero counts: everything unavailable.
	if _, ok := m.Variance(results, 0, "a", 1); ok {
		t.Error("Variance with zero count should not be ok")
	}
	if _, ok := m.Covariance(results, 0, "a", "b", 1); ok {
		t.Error("Covariance with zero count should not be ok")
	}
	// Degenerate data: single point has zero variance, correlation
	// undefined.
	dist := dataset.NewDistribution(schema)
	for i := 0; i < 5; i++ {
		dist.AddTuple([]int{3, 4})
	}
	exact := m.Batch.EvaluateDirect(dist)
	v, ok := m.Variance(exact, 0, "a", 1)
	if !ok || v != 0 {
		t.Fatalf("point-mass variance = %g, ok=%v", v, ok)
	}
	if _, ok := m.Correlation(exact, 0, "a", "b", 1); ok {
		t.Error("correlation of a point mass should be unavailable")
	}
}

func TestAverageGuardsSmallCounts(t *testing.T) {
	schema := dataset.MustSchema([]string{"a"}, []int{8})
	m, err := NewMomentSet(schema, []query.Range{query.FullDomain(schema)}, []string{"a"}, false)
	if err != nil {
		t.Fatal(err)
	}
	results := []float64{0.3, 100, 1000} // count ~0.3: unreliable
	if _, ok := m.Average(results, 0, "a", 1); ok {
		t.Error("average below count floor should not be ok")
	}
	results[0] = 10
	avg, ok := m.Average(results, 0, "a", 1)
	if !ok || avg != 10 {
		t.Fatalf("average = %g, %v", avg, ok)
	}
}

// End to end: progressive statistics through the engine converge to truth.
func TestProgressiveStatisticsThroughEngine(t *testing.T) {
	schema := dataset.MustSchema([]string{"a", "b"}, []int{16, 16})
	dist := dataGaussian(t, schema)
	ranges, err := query.GridPartition(schema, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMomentSet(schema, ranges, []string{"a", "b"}, true)
	if err != nil {
		t.Fatal(err)
	}
	// Degree-2 batch needs Db6.
	plan, err := core.NewWaveletPlan(m.Batch, wavelet.Db6)
	if err != nil {
		t.Fatal(err)
	}
	hat, err := dist.Transform(wavelet.Db6)
	if err != nil {
		t.Fatal(err)
	}
	run := core.NewRun(plan, penalty.SSE{}, storage.NewHashStoreFromDense(hat, 0))
	if err := run.RunToCompletionCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	exact := m.Batch.EvaluateDirect(dist)
	for ri := range ranges {
		// countFloor 0.5: the engine's exact-by-construction counts carry
		// ~1e-10 float noise, so a floor at an attained integer would flap.
		gotAvg, ok1 := m.Average(run.Estimates(), ri, "a", 0.5)
		wantAvg, ok2 := m.Average(exact, ri, "a", 0.5)
		if ok1 != ok2 {
			t.Fatalf("range %d availability mismatch", ri)
		}
		if ok1 && math.Abs(gotAvg-wantAvg) > 1e-6*(1+math.Abs(wantAvg)) {
			t.Fatalf("range %d avg %g want %g", ri, gotAvg, wantAvg)
		}
	}
}
