// Command wvlayout converts a persisted database into the schedule-aware
// .wvls layout format served by wvqd -layout:
//
//	wvlayout -in db.wvdb -out db.wvls
//
// The input is a .wvdb file (repro.Save, wvload, wvq -create): it carries
// the schema and filter identity, so the layout it converts into is
// self-contained.
//
// -hot, -block and -quantize tune the layout: how many leading schedule
// slots stay raw (mmap-served), the cold-block granularity, and whether
// cold values are stored as float32 (halves cold bytes, loses
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
		hot      = flag.Int("hot", 0, "hot-region slots stored raw (0 = nonzero/8, negative = all)")
		block    = flag.Int("block", 0, "cold-block granularity in slots (0 = default 4096)")
		quantize = flag.Bool("quantize", false, "store cold values as float32 (lossy; halves cold bytes)")
	)
	flag.Parse()
	if *in == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "wvlayout: -in and -out are required")
		flag.Usage()
		os.Exit(2)
	}
	if err := convert(*in, *out, *hot, *block, *quantize); err != nil {
		fmt.Fprintln(os.Stderr, "wvlayout:", err)
		os.Exit(1)
	}
}

// convert loads the .wvdb database and writes it as a layout: the embedded
// identity travels along, so the result is directly servable.
func convert(in, out string, hot, block int, quantize bool) error {
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	db, err := repro.LoadDatabase(f)
	_ = f.Close()
	if err != nil {
		return err
	}
	if err := db.SaveLayout(out, repro.LayoutOptions{
		HotCount:  hot,
		BlockSize: block,
		Quantize:  quantize,
	}); err != nil {
		return err
	}
	return report(in, out)
}

// report prints the conversion result: geometry, and where the bytes went —
// per coefficient, section by section, next to the input's.
func report(in, out string) error {
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
	fmt.Printf("%s (%d bytes) -> %s (%d bytes)\n", in, inInfo.Size(), out, st.FileBytes)
	fmt.Printf("  %d nonzero coefficients over %d cells\n", st.Slots, s.Size())
	fmt.Printf("  hot %d slots raw, cold %d blocks x %d slots", st.HotSlots, st.Blocks, st.BlockSize)
	if st.Quantized {
		fmt.Printf(" (quantized)")
	}
	fmt.Println()
	if st.Slots > 0 {
		per := func(bytes int64) float64 { return float64(bytes) / float64(st.Slots) }
		fmt.Printf("  bytes/coefficient:")
		for _, sec := range s.Sections()[1:] { // the header is not per coefficient
			fmt.Printf(" %s %.2f,", sec.Name, per(sec.Bytes))
		}
		fmt.Printf(" file %.2f (input %.2f)\n", per(st.FileBytes), per(inInfo.Size()))
	}
	return nil
}
