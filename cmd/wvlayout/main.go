// Command wvlayout converts a persisted database into the .wvls layout
// format served by wvqd -layout:
//
//	wvlayout -in db.wvdb -out db.wvls
//
// The input is a .wvdb file (repro.Save, wvload, wvq -create): it carries
// the schema and filter identity, so the layout it converts into is
// self-contained. The output takes whichever of the format's two shapes is
// smaller: dense (every cell's value in key order) or sparse (the nonzero
// coefficients in schedule order behind a key index); the closing report
// names the shape and both candidates' bytes per coefficient.
//
// -hot, -block and -quantize tune the layout: how many leading schedule
// slots of a sparse file stay raw (mmap-served), the block granularity, and
// whether block values are stored as float32 (halves their bytes, loses
// bit-identity — progressive estimates then differ from the source in the
// last bits).
package main

import (
	"flag"
	"fmt"
	"os"

	"repro"
	"repro/internal/storage/layout"
)

func main() {
	var (
		in       = flag.String("in", "", "input .wvdb database (wvload/wvq -create)")
		out      = flag.String("out", "", "output .wvls layout file")
		hot      = flag.Int("hot", 0, "hot-region slots stored raw, sparse shape only (0 = nonzero/8, negative = all)")
		block    = flag.Int("block", 0, "block granularity in slots (0 = default 4096)")
		quantize = flag.Bool("quantize", false, "store block values as float32 (lossy; halves their bytes)")
	)
	flag.Parse()
	if *in == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "wvlayout: -in and -out are required")
		flag.Usage()
		os.Exit(2)
	}
	opts := repro.LayoutOptions{HotCount: *hot, BlockSize: *block, Quantize: *quantize}
	if err := convert(*in, *out, opts); err != nil {
		fmt.Fprintln(os.Stderr, "wvlayout:", err)
		os.Exit(1)
	}
}

// convert loads the .wvdb database and writes it as a layout: the embedded
// identity travels along, so the result is directly servable.
func convert(in, out string, opts repro.LayoutOptions) error {
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	db, err := repro.LoadDatabase(f)
	_ = f.Close()
	if err != nil {
		return err
	}
	c, err := db.SaveLayout(out, opts)
	if err != nil {
		return err
	}
	return report(in, out, c)
}

// report prints the conversion result: the shape, the geometry, where the
// bytes went — per coefficient, section by section, next to the input's —
// and what each shape would have cost (c, as the writer weighed them).
func report(in, out string, c repro.LayoutCandidates) error {
	s, err := layout.Open(out, layout.Options{})
	if err != nil {
		return fmt.Errorf("verifying output: %w", err)
	}
	defer func() { _ = s.Close() }()
	inInfo, err := os.Stat(in)
	if err != nil {
		return err
	}
	st := s.Stats()
	shape := "sparse"
	if st.Dense {
		shape = "dense"
	}
	n := s.NonzeroCount()
	fmt.Printf("%s (%d bytes) -> %s (%d bytes, %s)\n", in, inInfo.Size(), out, st.FileBytes, shape)
	fmt.Printf("  %d nonzero coefficients over %d cells\n", n, s.Size())
	if st.Dense {
		fmt.Printf("  %d blocks x %d cells", st.Blocks, st.BlockSize)
	} else {
		fmt.Printf("  hot %d slots raw, cold %d blocks x %d slots", st.HotSlots, st.Blocks, st.BlockSize)
	}
	if st.Quantized {
		fmt.Printf(" (quantized)")
	}
	fmt.Println()
	if n == 0 {
		return nil
	}
	per := func(bytes int64) float64 { return float64(bytes) / float64(n) }
	fmt.Printf("  bytes/coefficient:")
	for _, sec := range s.Sections()[1:] { // the header is not per coefficient
		fmt.Printf(" %s %.2f,", sec.Name, per(sec.Bytes))
	}
	fmt.Printf(" file %.2f (input %.2f)\n", per(st.FileBytes), per(inInfo.Size()))
	fmt.Printf("  shape %s: dense %.2f, sparse %.2f bytes/coefficient\n", shape, per(c.DenseBytes), per(c.SparseBytes))
	return nil
}
