package experiments

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/linstrat"
	"repro/internal/query"
)

// sharedWorkload caches the quick workload across tests in this package.
var sharedWorkload *Workload

func quickWorkload(t *testing.T) *Workload {
	t.Helper()
	if sharedWorkload == nil {
		w, err := BuildWorkload(QuickConfig())
		if err != nil {
			t.Fatal(err)
		}
		sharedWorkload = w
	}
	return sharedWorkload
}

func TestConfigValidation(t *testing.T) {
	cfg := QuickConfig()
	cfg.NumRanges = 1
	if _, err := BuildWorkload(cfg); err == nil {
		t.Error("1 range should fail")
	}
	cfg = QuickConfig()
	cfg.Filter = nil
	if _, err := BuildWorkload(cfg); err == nil {
		t.Error("nil filter should fail")
	}
	cfg = QuickConfig()
	cfg.CursorSize = 0
	if _, err := BuildWorkload(cfg); err == nil {
		t.Error("cursor size 0 should fail")
	}
	cfg = QuickConfig()
	cfg.CursorWeight = 1
	if _, err := BuildWorkload(cfg); err == nil {
		t.Error("cursor weight 1 should fail")
	}
}

func TestWorkloadStructure(t *testing.T) {
	w := quickWorkload(t)
	if len(w.Batch) != w.Config.NumRanges {
		t.Fatalf("batch size %d", len(w.Batch))
	}
	// Partition covers the 4-D subdomain exactly once.
	var volume int
	for _, r := range w.Ranges4 {
		volume += r.Volume()
	}
	if volume != w.RangeSchema.Cells() {
		t.Fatalf("partition volume %d != subdomain %d", volume, w.RangeSchema.Cells())
	}
	// Every 5-D range spans the full temperature extent.
	for _, r := range w.Ranges {
		if r.Lo[4] != 0 || r.Hi[4] != w.Schema.Sizes[4]-1 {
			t.Fatalf("range %v does not span temperature", r)
		}
	}
	// Sum of all truths equals the global temperature sum.
	var total float64
	for _, v := range w.Truth {
		total += v
	}
	var direct float64
	for idx, c := range w.Dist.Cells {
		direct += c * float64(idx%w.Schema.Sizes[4])
	}
	if math.Abs(total-direct) > 1e-6*(1+math.Abs(direct)) {
		t.Fatalf("partition total %g != global %g", total, direct)
	}
}

func TestCheckpoints(t *testing.T) {
	got := Checkpoints(10)
	want := []int{1, 2, 4, 8, 10}
	if len(got) != len(want) {
		t.Fatalf("Checkpoints = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Checkpoints = %v", got)
		}
	}
	if got := Checkpoints(8); got[len(got)-1] != 8 || got[len(got)-2] != 4 {
		t.Fatalf("Checkpoints(8) = %v", got)
	}
}

func TestObs1SharingShape(t *testing.T) {
	w := quickWorkload(t)
	res, err := RunObs1(w)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline shape: shared retrievals far below per-query.
	if res.WaveletSharing < 2 {
		t.Fatalf("wavelet sharing %.2f, expected > 2x", res.WaveletSharing)
	}
	if res.WaveletBatch >= res.WaveletPerQuery {
		t.Fatal("batched retrievals should be fewer than per-query")
	}
	// Prefix-sum shape: ≤ 2^4 corners per query; sharing ≥ 2.
	if res.PrefixCornersRange > 16 {
		t.Fatalf("prefix corners per range %.1f > 16", res.PrefixCornersRange)
	}
	if res.PrefixSharing < 2 {
		t.Fatalf("prefix sharing %.2f, expected > 2x", res.PrefixSharing)
	}
	// Only a small fraction of data coefficients is touched.
	if res.WaveletBatch >= res.DataNonzeroCoeffs {
		t.Fatalf("batch retrievals %d >= stored coefficients %d", res.WaveletBatch, res.DataNonzeroCoeffs)
	}
	var sb strings.Builder
	res.WriteTable(&sb)
	if !strings.Contains(sb.String(), "Batch-Biggest-B") {
		t.Fatal("table missing content")
	}
}

func TestObs1GridSharesCornersPerfectly(t *testing.T) {
	w := quickWorkload(t)
	// Quick config: 8×8×4×8 subdomain; a 4×4×2×2 grid = 64 cells.
	res, err := RunObs1Grid(w, []int{4, 4, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumQueries != 64 {
		t.Fatalf("NumQueries = %d", res.NumQueries)
	}
	// One distinct hi-corner per grid cell: exactly 64 shared prefix sums —
	// the paper's 512-for-512-ranges phenomenon.
	if res.PrefixBatch != 64 {
		t.Fatalf("grid shared corners = %d, want 64", res.PrefixBatch)
	}
	if res.PrefixSharing < 5 {
		t.Fatalf("grid prefix sharing %.1f, want ≫ random partition's", res.PrefixSharing)
	}
	if _, err := RunObs1Grid(w, []int{3, 4, 2, 2}); err == nil {
		t.Error("non-dividing grid should fail")
	}
}

func TestCollapseMeasurePreservesSums(t *testing.T) {
	w := quickWorkload(t)
	collapsed := CollapseMeasure(w.Dist)
	var collapsedTotal float64
	for _, v := range collapsed.Cells {
		collapsedTotal += v
	}
	var direct float64
	for idx, c := range w.Dist.Cells {
		direct += c * float64(idx%w.Schema.Sizes[4])
	}
	if math.Abs(collapsedTotal-direct) > 1e-6*(1+direct) {
		t.Fatalf("collapsed total %g != %g", collapsedTotal, direct)
	}
}

func TestPrefixSumAnswersMatchTruth(t *testing.T) {
	// The prefix-sum strategy isn't just counted in Obs1 — it must produce
	// the same exact answers.
	w := quickWorkload(t)
	collapsed := CollapseMeasure(w.Dist)
	stored, err := (linstrat.PrefixSum{}).Precompute(collapsed)
	if err != nil {
		t.Fatal(err)
	}
	for i, r4 := range w.Ranges4 {
		vec, err := (linstrat.PrefixSum{}).RewriteQuery(query.Count(collapsed.Schema, r4))
		if err != nil {
			t.Fatal(err)
		}
		got := vec.DotDense(stored)
		if math.Abs(got-w.Truth[i]) > 1e-6*(1+math.Abs(w.Truth[i])) {
			t.Fatalf("range %d: prefix %g truth %g", i, got, w.Truth[i])
		}
	}
}

func TestFig5ErrorDecaysToZero(t *testing.T) {
	w := quickWorkload(t)
	series, err := RunFig5(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) < 5 {
		t.Fatalf("series too short: %d", len(series))
	}
	last := series[len(series)-1]
	if last.Retrieved != w.Plan.DistinctCoefficients() {
		t.Fatalf("final checkpoint %d != distinct %d", last.Retrieved, w.Plan.DistinctCoefficients())
	}
	if last.MeanRel > 1e-9 || last.TotalRel > 1e-9 {
		t.Fatalf("final relative errors %g / %g not ~0", last.MeanRel, last.TotalRel)
	}
	// Headline claim shape: the answer converges long before the master
	// list is exhausted — by a tenth of the list the bulk of the mass is in.
	var atTenth Fig5Point
	tenth := w.Plan.DistinctCoefficients() / 10
	for _, p := range series {
		if p.Retrieved <= tenth {
			atTenth = p
		}
	}
	if atTenth.TotalRel > 0.2 {
		t.Fatalf("total relative error %g at 10%% of the master list; expected below 0.2",
			atTenth.TotalRel)
	}
	// And the progression broadly decays: every checkpoint is within a
	// small factor of the running minimum (no catastrophic regressions).
	runMin := series[0].TotalRel
	for _, p := range series {
		if p.TotalRel > 3*runMin+1e-12 {
			t.Fatalf("total relative error %g at %d regressed far above running minimum %g",
				p.TotalRel, p.Retrieved, runMin)
		}
		if p.TotalRel < runMin {
			runMin = p.TotalRel
		}
	}
}

func TestFig67EachPenaltyWinsItsOwnMetric(t *testing.T) {
	w := quickWorkload(t)
	res, err := RunFig67(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Retrieved) < 4 {
		t.Fatalf("too few checkpoints: %d", len(res.Retrieved))
	}
	// Observation 3's shape, tested as threshold crossing: each progression
	// reaches a fixed precision on its own metric at least as early as the
	// other progression does. (Pointwise domination at every checkpoint is
	// not guaranteed on a single fixed database — the theorems govern worst
	// case and expectation — and the deep tail is float noise.)
	const threshold = 0.02
	firstBelow := func(vals []float64) int {
		for i, v := range vals {
			if v <= threshold {
				return res.Retrieved[i]
			}
		}
		return res.Retrieved[len(res.Retrieved)-1] + 1
	}
	// Allow one power-of-two checkpoint of slack: on a single fixed
	// database the theorems bound worst case and expectation, not every
	// pointwise trajectory.
	if a, b := firstBelow(res.SSEOptimizedNormSSE), firstBelow(res.CursorOptimizedNormSSE); a > 2*b {
		t.Fatalf("SSE-optimized reaches %.2f nSSE at %d, far later than cursor-optimized's %d", threshold, a, b)
	}
	if a, b := firstBelow(res.CursorOptimizedNormCursored), firstBelow(res.SSEOptimizedNormCursored); a > 2*b {
		t.Fatalf("cursor-optimized reaches %.2f nCur at %d, far later than SSE-optimized's %d", threshold, a, b)
	}
	// Both runs end exact.
	last := len(res.Retrieved) - 1
	for _, v := range []float64{
		res.SSEOptimizedNormSSE[last], res.CursorOptimizedNormSSE[last],
		res.SSEOptimizedNormCursored[last], res.CursorOptimizedNormCursored[last],
	} {
		if v > 1e-12 {
			t.Fatalf("final normalized penalty %g not ~0", v)
		}
	}
	var sb strings.Builder
	res.WriteTable(&sb)
	if !strings.Contains(sb.String(), "retrieved") {
		t.Fatal("table missing content")
	}
}

func TestFig234ErrorsShrinkWithB(t *testing.T) {
	res, err := RunFig234()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Errors shrink as B grows; the full reconstruction is exact.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].L2Err > res.Rows[i-1].L2Err {
			t.Fatalf("L2 error grew from B=%d to B=%d", res.Rows[i-1].B, res.Rows[i].B)
		}
	}
	final := res.Rows[len(res.Rows)-1]
	if final.B != res.TotalNonzero {
		t.Fatalf("final B %d != total %d", final.B, res.TotalNonzero)
	}
	if final.MaxErr > 1e-6 {
		t.Fatalf("exact reconstruction has max error %g", final.MaxErr)
	}
	// B=25 captures the bulk of the function: relative L2 well under 1.
	if res.Rows[0].RelL2 > 0.5 {
		t.Fatalf("B=25 relative L2 %g too large", res.Rows[0].RelL2)
	}
	// The sparse count should be in the paper's ballpark (hundreds, far
	// below the 16384-cell domain).
	if res.TotalNonzero > 4000 || res.TotalNonzero < 100 {
		t.Fatalf("total nonzero %d outside plausible range", res.TotalNonzero)
	}
	var sb strings.Builder
	res.WriteTable(&sb)
	if !strings.Contains(sb.String(), "B-term") {
		t.Fatal("table missing content")
	}
}

func TestDataVsQueryApproximation(t *testing.T) {
	w := quickWorkload(t)
	rows, err := RunDataVsQueryApprox(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 5 {
		t.Fatalf("too few rows: %d", len(rows))
	}
	last := rows[len(rows)-1]
	if last.B != w.Plan.DistinctCoefficients() {
		t.Fatalf("final budget %d != distinct %d", last.B, w.Plan.DistinctCoefficients())
	}
	// Query approximation converges to exact at full budget; data
	// approximation is still limited by the coefficients it dropped.
	if last.QueryTotalRel > 1e-9 {
		t.Fatalf("query approximation not exact at full budget: %g", last.QueryTotalRel)
	}
	if last.DataTotalRel <= last.QueryTotalRel {
		t.Fatalf("data approximation unexpectedly exact: %g", last.DataTotalRel)
	}
	// At the final few budgets, query approximation should win the total
	// relative error comparison (the paper's central argument).
	for _, r := range rows[len(rows)-3:] {
		if r.QueryTotalRel > r.DataTotalRel {
			t.Fatalf("B=%d: query approximation (%g) lost to data approximation (%g)",
				r.B, r.QueryTotalRel, r.DataTotalRel)
		}
	}
	var sb strings.Builder
	WriteDataVsQueryTable(&sb, rows)
	if !strings.Contains(sb.String(), "synopsis") {
		t.Fatal("table missing content")
	}
}

func TestLayoutStudy(t *testing.T) {
	w := quickWorkload(t)
	rows, err := RunLayoutStudy(w, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]LayoutRow{}
	for _, r := range rows {
		byName[r.Name] = r
		if r.BlocksExact <= 0 || r.BlocksAt10Pct <= 0 {
			t.Fatalf("layout %s has non-positive counts: %+v", r.Name, r)
		}
		if r.BlocksAt10Pct > r.BlocksExact {
			t.Fatalf("layout %s: 10%% blocks exceed total", r.Name)
		}
	}
	// The workload-aware layout must beat the natural layout on both
	// metrics (the conclusion's premise, measured).
	if byName["importance"].BlocksExact >= byName["natural"].BlocksExact {
		t.Fatalf("importance layout (%d blocks) not better than natural (%d)",
			byName["importance"].BlocksExact, byName["natural"].BlocksExact)
	}
	if byName["importance"].BlocksAt10Pct >= byName["natural"].BlocksAt10Pct {
		t.Fatalf("importance layout at 10%% (%d) not better than natural (%d)",
			byName["importance"].BlocksAt10Pct, byName["natural"].BlocksAt10Pct)
	}
	// Block order reads the natural layout's blocks — the same ones, all of
	// them by exhaustion (RunLayoutStudy checked its estimates against the
	// truth) — most important first, so 10% of the master list costs no more
	// blocks than coefficient order does.
	natural, blockOrder := byName["natural"], byName["natural, block order"]
	if blockOrder.BlocksExact != natural.BlocksExact {
		t.Fatalf("block order fetched %d blocks to exact, natural %d", blockOrder.BlocksExact, natural.BlocksExact)
	}
	if blockOrder.BlocksAt10Pct > natural.BlocksAt10Pct {
		t.Fatalf("block order at 10%% (%d) worse than natural (%d)", blockOrder.BlocksAt10Pct, natural.BlocksAt10Pct)
	}
	if _, err := RunLayoutStudy(w, 0); err == nil {
		t.Error("zero block size should fail")
	}
	var sb strings.Builder
	WriteLayoutTable(&sb, rows, 64)
	if !strings.Contains(sb.String(), "layout") {
		t.Fatal("table missing content")
	}
}

func TestDumpFig234Grids(t *testing.T) {
	dir := t.TempDir()
	if err := DumpFig234Grids(dir, []int{25}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig4_exact.csv", "fig_approx_B25.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
		if len(lines) != 128 {
			t.Fatalf("%s: %d rows, want 128", name, len(lines))
		}
		if got := strings.Count(lines[0], ",") + 1; got != 128 {
			t.Fatalf("%s: %d columns, want 128", name, got)
		}
	}
	// The exact grid holds x1 inside the range, 0 outside.
	data, err := os.ReadFile(filepath.Join(dir, "fig4_exact.csv"))
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	row60 := strings.Split(rows[60], ",")
	if row60[30] != "60" || row60[0] != "0" {
		t.Fatalf("exact grid content wrong: row60[30]=%s row60[0]=%s", row60[30], row60[0])
	}
}

func TestWriteFig5Table(t *testing.T) {
	var sb strings.Builder
	WriteFig5Table(&sb, []Fig5Point{{Retrieved: 1, MeanRel: 0.5, TotalRel: 0.4}, {Retrieved: 2, MeanRel: 0.1, TotalRel: 0.05}})
	if !strings.Contains(sb.String(), "mean relative error") {
		t.Fatal("table missing header")
	}
}
