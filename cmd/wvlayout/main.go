// Command wvlayout converts persisted coefficient stores into the
// schedule-aware .wvls layout format served by wvqd -layout:
//
//	wvlayout -in db.wvdb -out db.wvls                 # full database
//	wvlayout -in coeffs.wvfs -meta db.wvdb -out db.wvls
//	wvlayout -in coeffs.wvfs -out bare.wvls           # no metadata
//
// The input format is detected from its magic: WVDB files (repro.Save)
// carry schema and filter identity and convert into self-contained
// layouts; WVFS files (the dense on-disk coefficient array) hold only
// coefficients, so -meta can point at the .wvdb the coefficients came from
// to embed the identity wvqd needs. Without it the output is a bare layout
// usable through the storage API but not servable.
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
	"repro/internal/storage"
	"repro/internal/storage/layout"
)

func main() {
	var (
		in       = flag.String("in", "", "input file: a .wvdb database (wvload/wvq -create) or a .wvfs coefficient file")
		out      = flag.String("out", "", "output .wvls layout file")
		metaPath = flag.String("meta", "", "for .wvfs inputs: .wvdb database whose schema/filter identity to embed")
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
	if err := convert(*in, *out, *metaPath, *hot, *block, *quantize); err != nil {
		fmt.Fprintln(os.Stderr, "wvlayout:", err)
		os.Exit(1)
	}
}

// sniffMagic reads the input's 4-byte magic for format detection.
func sniffMagic(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer func() { _ = f.Close() }()
	var m [4]byte
	if _, err := f.ReadAt(m[:], 0); err != nil {
		return "", fmt.Errorf("reading magic of %s: %w", path, err)
	}
	return string(m[:]), nil
}

func convert(in, out, metaPath string, hot, block int, quantize bool) error {
	m, err := sniffMagic(in)
	if err != nil {
		return err
	}
	switch m {
	case "WVDB":
		if metaPath != "" {
			return fmt.Errorf("-meta only applies to .wvfs inputs; %s already carries its identity", in)
		}
		return convertDatabase(in, out, hot, block, quantize)
	case "WVFS":
		return convertFileStore(in, out, metaPath, hot, block, quantize)
	default:
		return fmt.Errorf("%s: unrecognized magic %q (want a .wvdb or .wvfs file)", in, m)
	}
}

// convertDatabase converts a full .wvdb database: the embedded identity
// travels into the layout, so the result is directly servable.
func convertDatabase(in, out string, hot, block int, quantize bool) error {
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

// convertFileStore converts a dense .wvfs coefficient file, optionally
// borrowing identity metadata from the database it was extracted from.
func convertFileStore(in, out, metaPath string, hot, block int, quantize bool) error {
	fs, err := storage.OpenFileStore(in)
	if err != nil {
		return err
	}
	defer func() { _ = fs.Close() }()
	var meta *layout.Meta
	cells := fs.Size()
	if metaPath != "" {
		f, err := os.Open(metaPath)
		if err != nil {
			return err
		}
		db, err := repro.LoadDatabase(f)
		_ = f.Close()
		if err != nil {
			return fmt.Errorf("loading -meta database: %w", err)
		}
		if got := db.Schema().Cells(); got != cells {
			return fmt.Errorf("-meta schema has %d cells but %s holds %d", got, in, cells)
		}
		meta = &layout.Meta{
			FilterName: db.Filter().Name,
			TupleCount: db.TupleCount(),
			Names:      db.Schema().Names,
			Sizes:      db.Schema().Sizes,
			Windows:    db.Windows(),
		}
	}
	keys := make([]int, 0, fs.NonzeroCount())
	values := make([]float64, 0, fs.NonzeroCount())
	fs.ForEachNonzero(func(k int, v float64) bool {
		keys = append(keys, k)
		values = append(values, v)
		return true
	})
	if err := layout.Write(out, keys, values, layout.WriteOptions{
		Cells:     cells,
		HotCount:  hot,
		BlockSize: block,
		Quantize:  quantize,
		Meta:      meta,
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
		if s.Meta() == nil {
			fmt.Println("  note: no metadata embedded; wvqd -layout needs it (re-run with -meta)")
		}
	}
	return nil
}
