// Command wvlayout re-shapes a database file into a .wvls layout:
//
//	wvlayout -in db.wvls -out db-b1024.wvls -block 1024
//
// The input is a .wvls view file (repro.Save, wvload, wvq -create), mapped
// as wvqd -db maps it and walked in key order; it carries the schema and
// filter identity, so the layout written from it is self-contained and
// serves with wvqd -db. The output holds the nonzero coefficients' values
// in key order behind one of the format's two indexes, whichever is smaller
// for the counts: rank words (an 80-byte record per 512 cells, from about
// 15 % of the cells nonzero up) or a key directory (each key's low bytes
// behind per-bucket counts) below that. The closing report names the shape
// and the bytes per coefficient of each section — the index and the values
// — and of the whole file, beside the input's. With the default options the input is
// written back byte for byte, so the command's use is its one knob. A file
// the reader refuses, one written by an older writer, cannot be converted:
// rebuild it from the source data with wvload or wvq -create.
//
// -block tunes the layout's block granularity: how many slots one checksum
// covers. The output replaces any file of its name by a rename, so -out may
// name the input.
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
		in    = flag.String("in", "", "input .wvls database file (wvload/wvq -create)")
		out   = flag.String("out", "", "output .wvls layout file")
		block = flag.Int("block", 0, "block granularity in slots (0 = default 4096)")
	)
	flag.Parse()
	if *in == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "wvlayout: -in and -out are required")
		flag.Usage()
		os.Exit(2)
	}
	opts := repro.LayoutOptions{BlockSize: *block}
	if err := convert(*in, *out, opts); err != nil {
		fmt.Fprintln(os.Stderr, "wvlayout:", err)
		os.Exit(1)
	}
}

// convert maps the database file and writes it as a layout from the
// mapping: the embedded identity travels along, so the result is directly
// servable. The output replaces its path by a rename, so the mapping of an
// input of the same name stays valid while it is read.
func convert(in, out string, opts repro.LayoutOptions) error {
	inInfo, err := os.Stat(in)
	if err != nil {
		return err
	}
	db, err := repro.OpenLayout(in)
	if err != nil {
		return err
	}
	err = db.SaveLayout(out, opts)
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return report(in, inInfo.Size(), out)
}

// report prints the conversion result: the shape, the geometry and where
// the bytes went — per coefficient, section by section, next to the
// input's.
func report(in string, inSize int64, out string) error {
	s, err := layout.Open(out)
	if err != nil {
		return fmt.Errorf("verifying output: %w", err)
	}
	defer func() { _ = s.Close() }()
	st := s.Stats()
	n := s.NonzeroCount()
	fmt.Printf("%s (%d bytes) -> %s (%d bytes, %s)\n", in, inSize, out, st.FileBytes, st.Shape)
	fmt.Printf("  %d nonzero coefficients over %d cells\n", n, s.Size())
	fmt.Printf("  %d blocks x %d slots\n", st.Blocks, st.BlockSize)
	if n == 0 {
		return nil
	}
	per := func(bytes int64) float64 { return float64(bytes) / float64(n) }
	fmt.Printf("  bytes/coefficient:")
	for _, sec := range s.Sections()[1:] { // the header is not per coefficient
		fmt.Printf(" %s %.2f,", sec.Name, per(sec.Bytes))
	}
	fmt.Printf(" file %.2f (input %.2f)\n", per(st.FileBytes), per(inSize))
	return nil
}
