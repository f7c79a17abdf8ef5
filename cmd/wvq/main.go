// Command wvq is a small progressive query shell over a persisted wavelet
// database: create a database file from the synthetic temperature dataset,
// then run textual aggregate queries against it with a retrieval budget.
//
//	wvq -create -db temp.wvls -records 200000
//	wvq -db temp.wvls -q "SUM(temperature) WHERE latitude BETWEEN 4 AND 11"
//	wvq -db temp.wvls -q "SUM(temperature) GROUP BY latitude(8)"
//	wvq -db temp.wvls -budget 200 \
//	    -q "COUNT() WHERE altitude = 0; SUM(temperature) WHERE altitude = 0"
//	wvq -db temp.wvls -i        # interactive shell
//
// Each query of the batch is answered progressively; with a budget the tool
// also prints the Theorem 1 worst-case bound and the Theorem 2 expected
// penalty for the returned estimates. In interactive mode every line is a
// batch; `.budget N` changes the retrieval budget and `.exit` quits. The
// interactive session shares one retrieval cache, so repeated or refined
// queries get cheaper.
//
// -create writes a .wvls file (repro.Database.Save), replacing any file of
// that name by a rename. The database file is mapped the way wvqd -db maps
// it.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"

	"repro"
)

func main() {
	var (
		dbPath      = flag.String("db", "temperature.wvls", "database file (.wvls)")
		create      = flag.Bool("create", false, "create the database file from a synthetic temperature dataset")
		records     = flag.Int("records", 200_000, "records to generate with -create")
		seed        = flag.Int64("seed", 1, "dataset seed for -create")
		qsrc        = flag.String("q", "", "';'-separated aggregate statements")
		budget      = flag.Int("budget", 0, "retrieval budget (0 = exact)")
		interactive = flag.Bool("i", false, "interactive shell")
	)
	flag.Parse()
	if err := run(*dbPath, *create, *records, *seed, *qsrc, *budget, *interactive); err != nil {
		fmt.Fprintln(os.Stderr, "wvq:", err)
		os.Exit(1)
	}
}

func run(dbPath string, create bool, records int, seed int64, qsrc string, budget int, interactive bool) error {
	if create {
		cfg := repro.DefaultTemperatureConfig()
		cfg.Records = records
		cfg.Seed = seed
		dist, err := repro.Temperature(cfg)
		if err != nil {
			return err
		}
		db, err := repro.NewDatabase(dist, repro.Db6) // Db6 also covers SUMSQ/SUMPROD
		if err != nil {
			return err
		}
		if err := db.SaveLayout(dbPath, repro.LayoutOptions{}); err != nil {
			return err
		}
		fmt.Printf("created %s: %d tuples, %d coefficients, schema %v/%v\n",
			dbPath, db.TupleCount(), db.NonzeroCoefficients(),
			db.Schema().Names, db.Schema().Sizes)
		if qsrc == "" && !interactive {
			return nil
		}
	}
	if qsrc == "" && !interactive {
		return fmt.Errorf("nothing to do: pass -q, -i or -create")
	}

	db, err := repro.OpenLayout(dbPath)
	if err != nil {
		return fmt.Errorf("opening database (run with -create first?): %w", err)
	}
	defer func() { _ = db.Close() }()
	sess := db.NewSession()
	if wins := db.Windows(); wins != nil {
		fmt.Println("attribute bins map to raw units as:")
		for i, name := range db.Schema().Names {
			fmt.Printf("  %-14s bin b ≈ %g + b·%g\n", name, wins[i][0],
				(wins[i][1]-wins[i][0])/float64(db.Schema().Sizes[i]))
		}
	}

	if qsrc != "" {
		if err := execute(sess, db, qsrc, budget); err != nil {
			return err
		}
	}
	if !interactive {
		return nil
	}

	fmt.Printf("wvq shell over %s (%d tuples); `.budget N`, `.exit`\n", dbPath, db.TupleCount())
	scanner := bufio.NewScanner(os.Stdin)
	fmt.Print("wvq> ")
	for scanner.Scan() {
		line := scanner.Text()
		switch {
		case line == ".exit" || line == ".quit":
			return nil
		case len(line) > 8 && line[:8] == ".budget ":
			if _, err := fmt.Sscanf(line[8:], "%d", &budget); err != nil {
				fmt.Println("usage: .budget N")
			} else {
				fmt.Printf("budget = %d retrievals\n", budget)
			}
		case line == "":
		default:
			if err := execute(sess, db, line, budget); err != nil {
				fmt.Println("error:", err)
			}
		}
		fmt.Print("wvq> ")
	}
	return scanner.Err()
}

// execute parses and runs one batch through the session.
func execute(sess *repro.Session, db *repro.Database, qsrc string, budget int) error {
	batch, err := repro.ParseBatch(db.Schema(), qsrc)
	if err != nil {
		return err
	}
	plan, err := sess.Plan(batch)
	if err != nil {
		return err
	}
	missesBefore := sess.Retrievals()
	hitsBefore := sess.Hits()
	run := sess.NewRun(plan, repro.SSE())
	if budget <= 0 {
		budget = plan.DistinctCoefficients()
	}
	if _, err := run.StepBatchCtx(context.Background(), budget); err != nil {
		return err
	}

	fmt.Printf("touched %d of %d coefficients (%d new retrievals, %d cache hits)\n",
		run.Retrieved(), plan.DistinctCoefficients(),
		sess.Retrievals()-missesBefore, sess.Hits()-hitsBefore)
	if run.Done() {
		fmt.Printf("%-60s %18s\n", "query", "result")
		for i, q := range batch {
			fmt.Printf("%-60s %18.2f\n", q.Label, run.Estimates()[i])
		}
		return nil
	}
	// Progressive: print per-query worst-case error bars (Theorem 1 applied
	// per query with K = Σ|Δ̂|).
	mass, massErr := db.CoefficientMass()
	fmt.Printf("expected SSE for unit-mass random data: %.4g (Theorem 2)\n",
		run.ExpectedPenalty(db.Schema().Cells(), 1))
	if massErr != nil {
		fmt.Printf("%-60s %18s\n", "query", "estimate")
		for i, q := range batch {
			fmt.Printf("%-60s %18.2f\n", q.Label, run.Estimates()[i])
		}
		fmt.Println("(no error bars: " + massErr.Error() + ")")
	} else {
		fmt.Printf("%-60s %18s %16s\n", "query", "estimate", "± worst case")
		for i, q := range batch {
			fmt.Printf("%-60s %18.2f %16.4g\n", q.Label, run.Estimates()[i], run.QueryErrorBound(i, mass))
		}
	}
	fmt.Println("(estimates are progressive; raise the budget for exact results)")
	return nil
}
