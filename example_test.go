package repro_test

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"repro"
)

// The basic flow: load a relation, build the materialized wavelet view, and
// evaluate a batch of range-sums exactly.
func Example() {
	schema, err := repro.NewSchema([]string{"age", "salary"}, []int{64, 64})
	if err != nil {
		log.Fatal(err)
	}
	dist := repro.NewDistribution(schema)
	dist.AddTuple([]int{33, 55})
	dist.AddTuple([]int{35, 40})
	dist.AddTuple([]int{52, 61})

	db, err := repro.NewDatabase(dist, repro.Db4)
	if err != nil {
		log.Fatal(err)
	}
	batch, err := repro.ParseBatch(schema, `
		COUNT()     WHERE age BETWEEN 30 AND 40;
		SUM(salary) WHERE age BETWEEN 30 AND 40
	`)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := db.Plan(batch)
	if err != nil {
		log.Fatal(err)
	}
	results := db.Exact(plan)
	fmt.Printf("count=%.0f sum=%.0f\n", results[0], results[1])
	// Output: count=2 sum=95
}

// Progressive evaluation with a structural error penalty: stop early and
// read off estimates together with the Theorem 1 worst-case bound.
func ExampleDatabase_NewRun() {
	schema, err := repro.NewSchema([]string{"x", "m"}, []int{32, 16})
	if err != nil {
		log.Fatal(err)
	}
	dist := repro.NewDistribution(schema)
	for x := 0; x < 32; x++ {
		for k := 0; k <= x%4; k++ {
			dist.AddTuple([]int{x, (3 * x) % 16})
		}
	}
	db, err := repro.NewDatabase(dist, repro.Db4)
	if err != nil {
		log.Fatal(err)
	}
	ranges, err := repro.GridPartition(schema, []int{4, 1})
	if err != nil {
		log.Fatal(err)
	}
	batch, err := repro.SumBatch(schema, ranges, "m")
	if err != nil {
		log.Fatal(err)
	}
	plan, err := db.Plan(batch)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	run := db.NewRun(plan, repro.SSE())
	if _, err := run.StepBatchCtx(ctx, 10); err != nil {
		log.Fatal(err)
	}
	mass, err := db.CoefficientMass()
	if err != nil {
		log.Fatal(err)
	}
	boundEarly := run.WorstCaseBound(mass)
	if err := run.RunToCompletionCtx(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("early bound positive: %v, final bound: %.0f\n",
		boundEarly > 0, run.WorstCaseBound(mass))
	// Output: early bound positive: true, final bound: 0
}

// Statements expand into batches; GROUP BY produces one query per bucket.
func ExampleParseBatch() {
	schema, err := repro.NewSchema([]string{"week", "amount"}, []int{8, 16})
	if err != nil {
		log.Fatal(err)
	}
	batch, err := repro.ParseBatch(schema, "SUM(amount) GROUP BY week(4)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(batch), "queries")
	// Output: 2 queries
}

// A database is saved to a .wvls view file and served from it with
// OpenLayout, which maps the file: every value a query reads comes from a
// block checksummed on its first read. The file holds the nonzero values in
// key order behind one of two indexes, whichever the counts make smaller:
// rank words — an 80-byte record per 512 cells — from about 15 % of the
// cells nonzero up, a key directory below that.
func ExampleDatabase_SaveLayout() {
	dir, err := os.MkdirTemp("", "view")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	schema, err := repro.NewSchema([]string{"x", "y"}, []int{16, 16})
	if err != nil {
		log.Fatal(err)
	}
	for _, tuples := range []int{200, 2} {
		db, err := repro.NewDatabase(repro.UniformData(schema, tuples, 1), repro.Haar)
		if err != nil {
			log.Fatal(err)
		}
		path := filepath.Join(dir, "view.wvls")
		if err := db.SaveLayout(path, repro.LayoutOptions{}); err != nil {
			log.Fatal(err)
		}
		view, err := repro.OpenLayout(path)
		if err != nil {
			log.Fatal(err)
		}
		stats, _ := view.LayoutStats()
		sections, _ := view.LayoutSections()
		var parts []string
		for _, sec := range sections {
			parts = append(parts, fmt.Sprintf("%s %d B", sec.Name, sec.Bytes))
		}
		fmt.Printf("%d of %d cells nonzero: %s; %s\n", view.NonzeroCoefficients(), schema.Cells(), stats.Shape, strings.Join(parts, ", "))
		if err := view.Close(); err != nil {
			log.Fatal(err)
		}
	}
	// Output:
	// 217 of 256 cells nonzero: rank; header 124 B, rank words 80 B, values 1744 B
	// 37 of 256 cells nonzero: directory; header 124 B, key index 53 B, values 304 B
}
