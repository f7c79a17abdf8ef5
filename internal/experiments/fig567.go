package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/core"
	"repro/internal/penalty"
)

// Fig5Point is one checkpoint of the Figure 5 progression, carrying both
// error metrics: MeanRel is the per-query mean relative error (dominated by
// the smallest partition cells, whose sums are Poisson-noisy and only
// resolve once their fine-scale coefficients arrive), and TotalRel is the
// mass-weighted relative error Σ|err| / Σ|truth|, which tracks how fast the
// bulk of the answer mass converges.
type Fig5Point struct {
	Retrieved int
	MeanRel   float64
	TotalRel  float64
}

// RunFig5 reproduces Figure 5: progressive error of the SSE-ordered
// progression versus the number of coefficients retrieved, sampled at
// power-of-two checkpoints. Queries whose exact answer is zero are excluded
// from the per-query mean, as relative error is undefined there.
func RunFig5(w *Workload) ([]Fig5Point, error) {
	run := core.NewRun(w.Plan, penalty.SSE{}, w.Store)
	var series []Fig5Point
	run.RunWithCheckpoints(Checkpoints(w.Plan.DistinctCoefficients()), func(retrieved int, est []float64) {
		series = append(series, Fig5Point{
			Retrieved: retrieved,
			MeanRel:   meanRelativeError(est, w.Truth),
			TotalRel:  totalRelativeError(est, w.Truth),
		})
	})
	return series, nil
}

func totalRelativeError(est, truth []float64) float64 {
	var num, den float64
	for i := range truth {
		num += math.Abs(est[i] - truth[i])
		den += math.Abs(truth[i])
	}
	if den == 0 {
		return 0
	}
	return num / den
}

func meanRelativeError(est, truth []float64) float64 {
	var sum float64
	n := 0
	for i := range truth {
		if truth[i] == 0 {
			continue
		}
		sum += math.Abs(est[i]-truth[i]) / math.Abs(truth[i])
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Fig67Result holds the four progressive penalty curves of Figures 6 and 7:
// each of the two runs (importance tuned for SSE, importance tuned for
// cursored SSE) is measured under both penalties, normalized by the penalty
// of the exact result vector (the paper's "normalized SSE").
type Fig67Result struct {
	Cursor    []int
	Retrieved []int
	// Figure 6 (normalized SSE) curves.
	SSEOptimizedNormSSE    []float64
	CursorOptimizedNormSSE []float64
	// Figure 7 (normalized cursored SSE) curves.
	SSEOptimizedNormCursored    []float64
	CursorOptimizedNormCursored []float64
	// Cursor-cells-only normalized SSE — what a user staring at the
	// on-screen cells experiences. Not a paper figure, but the sharpest view
	// of what the cursored importance buys.
	SSEOptimizedCursorOnly    []float64
	CursorOptimizedCursorOnly []float64
}

// RunFig67 executes both progressions over the shared workload and samples
// the two normalized penalties at power-of-two checkpoints.
func RunFig67(w *Workload) (*Fig67Result, error) {
	cfg := w.Config
	// The paper prioritizes "a set of 20 neighboring ranges". The partition
	// is sorted by lower corner, so a contiguous index window picks
	// spatially clustered cells; center it.
	cursor := make([]int, cfg.CursorSize)
	start := (len(w.Batch) - cfg.CursorSize) / 2
	for i := range cursor {
		cursor[i] = start + i
	}
	cursored, err := penalty.Cursored(len(w.Batch), cursor, cfg.CursorWeight)
	if err != nil {
		return nil, err
	}
	sse := penalty.SSE{}

	normSSE := normalizer(sse, w.Truth)
	normCur := normalizer(cursored, w.Truth)
	var cursorTruthSq float64
	for _, i := range cursor {
		cursorTruthSq += w.Truth[i] * w.Truth[i]
	}
	cursorOnly := func(e []float64) float64 {
		var s float64
		for _, i := range cursor {
			s += e[i] * e[i]
		}
		if cursorTruthSq == 0 {
			return 0
		}
		return s / cursorTruthSq
	}

	res := &Fig67Result{Cursor: cursor}
	points := Checkpoints(w.Plan.DistinctCoefficients())

	runSSE := core.NewRun(w.Plan, sse, w.Store)
	runSSE.RunWithCheckpoints(points, func(retrieved int, est []float64) {
		res.Retrieved = append(res.Retrieved, retrieved)
		e := errVec(est, w.Truth)
		res.SSEOptimizedNormSSE = append(res.SSEOptimizedNormSSE, normSSE(e))
		res.SSEOptimizedNormCursored = append(res.SSEOptimizedNormCursored, normCur(e))
		res.SSEOptimizedCursorOnly = append(res.SSEOptimizedCursorOnly, cursorOnly(e))
	})

	runCur := core.NewRun(w.Plan, cursored, w.Store)
	runCur.RunWithCheckpoints(points, func(retrieved int, est []float64) {
		e := errVec(est, w.Truth)
		res.CursorOptimizedNormSSE = append(res.CursorOptimizedNormSSE, normSSE(e))
		res.CursorOptimizedNormCursored = append(res.CursorOptimizedNormCursored, normCur(e))
		res.CursorOptimizedCursorOnly = append(res.CursorOptimizedCursorOnly, cursorOnly(e))
	})
	if len(res.CursorOptimizedNormSSE) != len(res.Retrieved) {
		return nil, fmt.Errorf("experiments: checkpoint count mismatch between runs")
	}
	return res, nil
}

func errVec(est, truth []float64) []float64 {
	e := make([]float64, len(truth))
	for i := range truth {
		e[i] = est[i] - truth[i]
	}
	return e
}

// normalizer returns p(·)/p(truth) — the paper's normalized penalties.
func normalizer(p penalty.Penalty, truth []float64) func([]float64) float64 {
	denom := p.Eval(truth)
	return func(e []float64) float64 {
		if denom == 0 {
			return 0
		}
		return p.Eval(e) / denom
	}
}

// WriteFig5Table renders the Figure 5 series.
func WriteFig5Table(out io.Writer, series []Fig5Point) {
	fmt.Fprintln(out, "Figure 5: progressive relative error (SSE-ordered progression)")
	fmt.Fprintf(out, "  %12s %20s %20s\n", "retrieved", "mean relative error", "total relative error")
	for _, p := range series {
		fmt.Fprintf(out, "  %12d %20.6g %20.6g\n", p.Retrieved, p.MeanRel, p.TotalRel)
	}
}

// WriteTable renders the Figures 6–7 series side by side.
func (r *Fig67Result) WriteTable(out io.Writer) {
	fmt.Fprintf(out, "Figures 6-7: normalized penalties for two progressions (cursor = %d ranges)\n", len(r.Cursor))
	fmt.Fprintf(out, "  %10s | %13s %13s | %13s %13s | %13s %13s\n",
		"retrieved", "nSSE(optSSE)", "nSSE(optCur)",
		"nCur(optSSE)", "nCur(optCur)", "scrn(optSSE)", "scrn(optCur)")
	for i, ret := range r.Retrieved {
		fmt.Fprintf(out, "  %10d | %13.5g %13.5g | %13.5g %13.5g | %13.5g %13.5g\n",
			ret,
			r.SSEOptimizedNormSSE[i], r.CursorOptimizedNormSSE[i],
			r.SSEOptimizedNormCursored[i], r.CursorOptimizedNormCursored[i],
			r.SSEOptimizedCursorOnly[i], r.CursorOptimizedCursorOnly[i])
	}
}
