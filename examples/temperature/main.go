// Temperature drill-down: the paper's motivating scenario. A data consumer
// partitions a global temperature dataset into coarse cells, requests
// progressive aggregates to spot interesting regions, then drills into the
// hottest region with a finer partition, prioritizing the cells currently
// "on screen" with a cursored penalty.
//
// Run with:
//
//	go run ./examples/temperature
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"repro"
)

func main() {
	// Synthetic global temperature observations: latitude × longitude ×
	// altitude × time × temperature (see DESIGN.md for how this stands in
	// for the paper's 15.7M-record JPL dataset).
	cfg := repro.DefaultTemperatureConfig()
	cfg.Records = 300_000
	dist, err := repro.Temperature(cfg)
	if err != nil {
		log.Fatal(err)
	}
	schema := dist.Schema
	db, err := repro.NewDatabase(dist, repro.Db4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d observations over a %v domain\n\n", dist.TupleCount, schema.Sizes)

	// Step 1 — coarse synopsis: an 8×8 lat/lon grid (full altitude, time and
	// temperature extents), requesting AVERAGE temperature per cell, which
	// needs the COUNT and SUM moment queries.
	grid, err := repro.GridPartition(schema, []int{8, 8, 1, 1, 1})
	if err != nil {
		log.Fatal(err)
	}
	moments, err := repro.NewMomentSet(schema, grid, []string{"temperature"}, false)
	if err != nil {
		log.Fatal(err)
	}
	// Drop the SUM-OF-SQUARES queries we don't need here? The moment set
	// always carries them; with Db6 they'd be sparse too, but Db4 cannot
	// rewrite degree-2 queries, so evaluate with Db6.
	db6, err := repro.NewDatabase(dist, repro.Db6)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := db6.Plan(moments.Batch)
	if err != nil {
		log.Fatal(err)
	}

	// Progressive synopsis: stop after a small fraction of the coefficients
	// — enough to rank regions.
	ctx := context.Background()
	run := db6.NewRun(plan, repro.SSE())
	budget := plan.DistinctCoefficients() / 10
	if _, err := run.StepBatchCtx(ctx, budget); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("coarse synopsis after %d of %d retrievals (%.0f%%):\n",
		run.Retrieved(), plan.DistinctCoefficients(),
		100*float64(run.Retrieved())/float64(plan.DistinctCoefficients()))

	type cell struct {
		idx int
		avg float64
	}
	var cells []cell
	for i := range grid {
		if avg, ok := moments.Average(run.Estimates(), i, "temperature", 16); ok {
			cells = append(cells, cell{i, avg})
		}
	}
	sort.Slice(cells, func(a, b int) bool { return cells[a].avg > cells[b].avg })
	fmt.Printf("  hottest cells (average temperature bin, higher = warmer):\n")
	for _, c := range cells[:5] {
		fmt.Printf("    cell %3d  lat %2d-%2d  lon %2d-%2d  avg %.2f\n",
			c.idx, grid[c.idx].Lo[0], grid[c.idx].Hi[0], grid[c.idx].Lo[1], grid[c.idx].Hi[1], c.avg)
	}

	// Step 2 — drill down into the hottest cell with a finer partition and a
	// cursored penalty: the first rows are "on screen", so their errors are
	// weighted 10× (the paper's P2 penalty).
	hot := grid[cells[0].idx]
	fmt.Printf("\ndrilling into cell %d (%s)\n", cells[0].idx, hot)
	// Use a session so coefficients fetched for the synopsis are reused by
	// the drill-down batch (real drill-down workloads overlap heavily).
	sess := db.NewSession()
	fine, err := repro.GridPartition(schema, []int{1, 1, 2, 4, 1})
	if err != nil {
		log.Fatal(err)
	}
	// Restrict the fine grid to the hot cell's lat/lon window.
	var drill []repro.Range
	for _, r := range fine {
		r.Lo[0], r.Hi[0] = hot.Lo[0], hot.Hi[0]
		r.Lo[1], r.Hi[1] = hot.Lo[1], hot.Hi[1]
		drill = append(drill, r)
	}
	batch, err := repro.SumBatch(schema, drill, "temperature")
	if err != nil {
		log.Fatal(err)
	}
	drillPlan, err := sess.Plan(batch)
	if err != nil {
		log.Fatal(err)
	}
	onScreen := []int{0, 1, 2, 3}
	pen, err := repro.CursoredSSE(len(batch), onScreen, 10)
	if err != nil {
		log.Fatal(err)
	}
	drillRun := sess.NewRun(drillPlan, pen)
	if _, err := drillRun.StepBatchCtx(ctx, drillPlan.DistinctCoefficients()/4); err != nil {
		log.Fatal(err)
	}

	exact := batch.EvaluateDirect(dist)
	fmt.Printf("after %d of %d retrievals, the on-screen rows converge first:\n",
		drillRun.Retrieved(), drillPlan.DistinctCoefficients())
	fmt.Printf("  %-30s %14s %14s %10s\n", "altitude × time slab", "estimate", "exact", "rel.err")
	for _, i := range onScreen {
		rel := 0.0
		if exact[i] != 0 {
			rel = (drillRun.Estimates()[i] - exact[i]) / exact[i]
			if rel < 0 {
				rel = -rel
			}
		}
		fmt.Printf("  alt %d-%d, time %2d-%2d %14.0f %14.0f %9.2f%%\n",
			drill[i].Lo[2], drill[i].Hi[2], drill[i].Lo[3], drill[i].Hi[3],
			drillRun.Estimates()[i], exact[i], 100*rel)
	}
	if err := drillRun.RunToCompletionCtx(ctx); err != nil {
		log.Fatal(err)
	}

	// Step 3 — the user now asks for AVERAGE temperature per slab, which
	// additionally needs the COUNT of each slab. A COUNT query's wavelet
	// coefficients are a subset of the matching SUM query's (identical range
	// factors; the temperature factor keeps only the scaling term), so in
	// the same session the whole COUNT batch is served from cache.
	counts := repro.CountBatch(schema, drill)
	countPlan, err := sess.Plan(counts)
	if err != nil {
		log.Fatal(err)
	}
	before := sess.Retrievals()
	countVals := sess.Exact(countPlan)
	fmt.Printf("\nAVERAGE upgrade: the %d-coefficient COUNT batch cost %d new retrievals\n",
		countPlan.DistinctCoefficients(), sess.Retrievals()-before)
	fmt.Printf("  %-30s %14s\n", "altitude × time slab", "avg temp bin")
	for i := range drill[:4] {
		if countVals[i] > 1 {
			fmt.Printf("  alt %d-%d, time %2d-%2d %14.2f\n",
				drill[i].Lo[2], drill[i].Hi[2], drill[i].Lo[3], drill[i].Hi[3],
				drillRun.Estimates()[i]/countVals[i])
		}
	}
}
