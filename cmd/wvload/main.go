// Command wvload builds a wavelet database file from a CSV: it quantizes the
// selected numeric columns onto power-of-two bin domains, transforms the
// frequency distribution, and writes the persisted view wvq and wvqd serve:
// a .wvls file (repro.Database.Save) that replaces any file of that name by
// a rename, so a daemon serving the old file keeps answering from it.
//
//	wvload -in observations.csv -cols "age:64,salary:128[0..200000]" -out db.wvls
//	wvq -db db.wvls -q "SUM(salary) WHERE age BETWEEN 20 AND 40"
//
// Columns without an explicit [min..max] window are windowed to the data's
// observed range; the chosen windows are printed so query predicates can be
// translated from raw units to bins.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/ingest"
	"repro/internal/wavelet"
)

func main() {
	var (
		in     = flag.String("in", "", "input CSV path (required)")
		out    = flag.String("out", "data.wvls", "output database path (.wvls)")
		cols   = flag.String("cols", "", `column spec, e.g. "age:64,salary:128[0..200000]" (required)`)
		filter = flag.String("filter", "Db4", "wavelet filter (Haar, Db4, …, Db12)")
	)
	flag.Parse()
	if err := run(*in, *out, *cols, *filter); err != nil {
		fmt.Fprintln(os.Stderr, "wvload:", err)
		os.Exit(1)
	}
}

func run(in, out, colSpec, filterName string) error {
	if in == "" || colSpec == "" {
		return fmt.Errorf("both -in and -cols are required")
	}
	f, err := wavelet.ByName(filterName)
	if err != nil {
		return err
	}
	columns, err := ingest.ColumnSpec(colSpec)
	if err != nil {
		return err
	}
	src, err := os.Open(in)
	if err != nil {
		return err
	}
	defer src.Close()
	res, err := ingest.CSV(src, columns)
	if err != nil {
		return err
	}
	fmt.Printf("ingested %d rows (%d skipped) into a %v domain\n",
		res.Rows, res.Skipped, res.Dist.Schema.Sizes)
	for i, c := range columns {
		fmt.Printf("  %-12s window [%g, %g] → bins [0, %d)\n",
			c.Name, res.Windows[i][0], res.Windows[i][1], c.Bins)
	}
	db, err := repro.NewDatabase(res.Dist, f)
	if err != nil {
		return err
	}
	if err := db.SetWindows(res.Windows); err != nil {
		return err
	}
	if err := db.SaveLayout(out, repro.LayoutOptions{}); err != nil {
		return err
	}
	st, err := os.Stat(out)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d coefficients, %d bytes, filter %s\n",
		out, db.NonzeroCoefficients(), st.Size(), f.Name)
	return nil
}
