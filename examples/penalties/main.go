// Structural error penalties: Section 4 of the paper argues that the
// *structure* of the error matters more than its size — a user hunting for
// local minima needs different guarantees than one reading totals. This
// example evaluates the same batch of queries under four penalties and
// measures, for each progression, how many retrievals it takes to reach
// three different structural goals:
//
//   - locating the series' true minimum (the paper's query Q3);
//   - making the on-screen prefix accurate (query Q2 / cursored penalty);
//   - driving the total SSE below a threshold (query Q1).
//
// Run with:
//
//	go run ./examples/penalties
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"

	"repro"
)

func main() {
	// One-dimensional time series of sales per week, plus a measure axis so
	// SUM queries are degree-1.
	schema, err := repro.NewSchema([]string{"week", "amount"}, []int{64, 64})
	if err != nil {
		log.Fatal(err)
	}
	dist := repro.NewDistribution(schema)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 60_000; i++ {
		week := rng.Intn(64)
		// Seasonal sales with a dip around week 40 (the local minimum an
		// analyst wants to find) and noise.
		mean := 30 + 12*math.Sin(float64(week)/8) - 14*math.Exp(-sq(float64(week)-40)/18)
		amount := int(mean + rng.NormFloat64()*6)
		if amount < 0 {
			amount = 0
		}
		if amount > 63 {
			amount = 63
		}
		dist.AddTuple([]int{week, amount})
	}
	db, err := repro.NewDatabase(dist, repro.Db4)
	if err != nil {
		log.Fatal(err)
	}

	// One SUM(amount) query per 2-week bucket: a 32-cell series.
	ranges, err := repro.GridPartition(schema, []int{32, 1})
	if err != nil {
		log.Fatal(err)
	}
	batch, err := repro.SumBatch(schema, ranges, "amount")
	if err != nil {
		log.Fatal(err)
	}
	plan, err := db.Plan(batch)
	if err != nil {
		log.Fatal(err)
	}
	exact := batch.EvaluateDirect(dist)
	trueMin := argMin(exact)
	var sseExact float64
	for _, v := range exact {
		sseExact += v * v
	}
	fmt.Printf("batch: %d bucket sums, %d shared coefficients; true minimum at bucket %d\n\n",
		len(batch), plan.DistinctCoefficients(), trueMin)

	lap, err := repro.LaplacianSSE(len(batch))
	if err != nil {
		log.Fatal(err)
	}
	onScreen := []int{0, 1, 2, 3}
	cursored, err := repro.CursoredSSE(len(batch), onScreen, 10)
	if err != nil {
		log.Fatal(err)
	}
	penalties := []repro.Penalty{repro.SSE(), cursored, lap, repro.LinfNorm()}

	fmt.Printf("retrievals (of %d) until each structural goal holds and keeps holding:\n\n",
		plan.DistinctCoefficients())
	fmt.Printf("%-28s %16s %18s %14s\n",
		"penalty driving the run", "minimum located", "on-screen <1% err", "nSSE < 1e-4")
	for _, pen := range penalties {
		run := db.NewRun(plan, pen)
		// Walk the run once, recording the LAST step at which each goal was
		// violated; the goal "holds and keeps holding" from the next step.
		lastBadMin, lastBadScreen, lastBadSSE := 0, 0, 0
		for !run.Done() {
			if _, err := run.StepBatchCtx(context.Background(), 1); err != nil {
				log.Fatal(err)
			}
			est := run.Estimates()
			if argMin(est) != trueMin {
				lastBadMin = run.Retrieved()
			}
			for _, i := range onScreen {
				if exact[i] != 0 && math.Abs(est[i]-exact[i]) > 0.01*math.Abs(exact[i]) {
					lastBadScreen = run.Retrieved()
					break
				}
			}
			var sse float64
			for i := range exact {
				e := est[i] - exact[i]
				sse += e * e
			}
			if sse > 1e-4*sseExact {
				lastBadSSE = run.Retrieved()
			}
		}
		fmt.Printf("%-28s %16d %18d %14d\n", pen.Name(), lastBadMin+1, lastBadScreen+1, lastBadSSE+1)
	}

	fmt.Println("\nSmaller is better in each column; each progression tends to reach the")
	fmt.Println("goal its penalty encodes before the progressions tuned for other goals.")
}

func argMin(xs []float64) int {
	best := 0
	for i, v := range xs {
		if v < xs[best] {
			best = i
		}
	}
	return best
}

func sq(x float64) float64 { return x * x }
