// Package ingest loads real tabular data into data frequency distributions:
// it reads CSV records, quantizes selected numeric columns onto power-of-two
// bin domains, and produces the Δ a Database is built from. This is the
// adoption path from "I have a CSV" to progressive range-sum queries.
package ingest

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/dataset"
)

// Column selects one CSV column for ingestion.
type Column struct {
	// Name is the CSV header name (also the schema attribute name).
	Name string
	// Bins is the power-of-two domain size the values are quantized onto.
	Bins int
	// Min and Max bound the quantization window. If Min == Max == 0 the
	// window is taken from the data (a scan pass discovers it).
	Min, Max float64
}

// ColumnSpec parses a compact textual column list of the form
// "age:64,salary:128,score:32[0..100]" — name, bins, and an optional
// explicit [min..max] window.
func ColumnSpec(spec string) ([]Column, error) {
	parts := strings.Split(spec, ",")
	cols := make([]Column, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		var window string
		if i := strings.IndexByte(p, '['); i >= 0 {
			if !strings.HasSuffix(p, "]") {
				return nil, fmt.Errorf("ingest: malformed window in %q", p)
			}
			window = p[i+1 : len(p)-1]
			p = p[:i]
		}
		name, binsStr, ok := strings.Cut(p, ":")
		if !ok {
			return nil, fmt.Errorf("ingest: column %q missing ':bins'", p)
		}
		bins, err := strconv.Atoi(binsStr)
		if err != nil {
			return nil, fmt.Errorf("ingest: column %q: bad bin count: %v", name, err)
		}
		col := Column{Name: strings.TrimSpace(name), Bins: bins}
		if window != "" {
			lo, hi, ok := strings.Cut(window, "..")
			if !ok {
				return nil, fmt.Errorf("ingest: window %q must be min..max", window)
			}
			if col.Min, err = strconv.ParseFloat(strings.TrimSpace(lo), 64); err != nil {
				return nil, fmt.Errorf("ingest: window %q: %v", window, err)
			}
			if col.Max, err = strconv.ParseFloat(strings.TrimSpace(hi), 64); err != nil {
				return nil, fmt.Errorf("ingest: window %q: %v", window, err)
			}
			if col.Max <= col.Min {
				return nil, fmt.Errorf("ingest: window %q is empty", window)
			}
		}
		cols = append(cols, col)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("ingest: no columns in spec %q", spec)
	}
	return cols, nil
}

// Result carries the loaded distribution and ingestion statistics.
type Result struct {
	Dist *dataset.Distribution
	// Rows is the number of data rows read; Skipped counts rows dropped for
	// unparsable or missing values.
	Rows, Skipped int
	// Windows records the quantization window used per column (useful when
	// auto-discovered).
	Windows [][2]float64
}

// CSV ingests the reader's CSV content. The first record must be a header
// containing every requested column. Because auto-windowed columns need the
// data twice, the entire input is buffered; to stream a large input, give
// every column an explicit window and use CSVBatches.
func CSV(r io.Reader, cols []Column) (*Result, error) {
	rr, err := newRowReader(r, cols)
	if err != nil {
		return nil, err
	}
	// Buffer the parsed values.
	var rows [][]float64
	for {
		vals, err := rr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		rows = append(rows, slices.Clone(vals))
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("ingest: no usable rows (%d skipped)", rr.skipped)
	}

	// Resolve windows.
	windows := make([][2]float64, len(cols))
	for i, c := range cols {
		if c.Min != 0 || c.Max != 0 {
			windows[i] = [2]float64{c.Min, c.Max}
			continue
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, vals := range rows {
			if vals[i] < lo {
				lo = vals[i]
			}
			if vals[i] > hi {
				hi = vals[i]
			}
		}
		if hi == lo {
			hi = lo + 1 // constant column: single bin will hold everything
		}
		windows[i] = [2]float64{lo, hi}
	}

	names := make([]string, len(cols))
	sizes := make([]int, len(cols))
	for i, c := range cols {
		names[i] = c.Name
		sizes[i] = c.Bins
	}
	schema, err := dataset.NewSchema(names, sizes)
	if err != nil {
		return nil, err
	}
	dist := dataset.NewDistribution(schema)
	coords := make([]int, len(cols))
	for _, vals := range rows {
		for i, v := range vals {
			coords[i] = quantize(v, windows[i][0], windows[i][1], cols[i].Bins)
		}
		dist.AddTuple(coords)
	}
	return &Result{Dist: dist, Rows: len(rows), Skipped: rr.skipped, Windows: windows}, nil
}

// rowReader reads the records of a CSV input after its header, one row of
// the selected columns' values at a time: the one parser behind CSV and
// CSVBatches.
type rowReader struct {
	r       *csv.Reader
	colIdx  []int // record field of each column
	vals    []float64
	line    int // input line of the last record read
	skipped int // rows dropped for a missing or unparsable value
}

// newRowReader checks that every column's bins are a power of two ≥ 2,
// reads the header and finds every column in it.
func newRowReader(r io.Reader, cols []Column) (*rowReader, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("ingest: no columns")
	}
	for _, c := range cols {
		if c.Bins < 2 || c.Bins&(c.Bins-1) != 0 {
			return nil, fmt.Errorf("ingest: column %q bins %d not a power of two ≥ 2", c.Name, c.Bins)
		}
	}
	reader := csv.NewReader(r)
	reader.ReuseRecord = true
	header, err := reader.Read()
	if err != nil {
		return nil, fmt.Errorf("ingest: reading header: %w", err)
	}
	colIdx := make([]int, len(cols))
	for i, c := range cols {
		colIdx[i] = slices.IndexFunc(header, func(h string) bool { return strings.TrimSpace(h) == c.Name })
		if colIdx[i] < 0 {
			return nil, fmt.Errorf("ingest: column %q not in header %v", c.Name, header)
		}
	}
	return &rowReader{r: reader, colIdx: colIdx, vals: make([]float64, len(cols)), line: 1}, nil
}

// next returns the values of the next row whose every selected field parses
// as a finite number, counting the rows it skips on the way, or io.EOF after
// the last row. The slice is reused by the next call.
func (rr *rowReader) next() ([]float64, error) {
rows:
	for {
		rec, err := rr.r.Read()
		if err == io.EOF {
			return nil, err
		}
		rr.line++
		if err != nil {
			return nil, fmt.Errorf("ingest: reading row %d: %w", rr.line, err)
		}
		for i, j := range rr.colIdx {
			if j >= len(rec) {
				rr.skipped++
				continue rows
			}
			v, err := strconv.ParseFloat(strings.TrimSpace(rec[j]), 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				rr.skipped++
				continue rows
			}
			rr.vals[i] = v
		}
		return rr.vals, nil
	}
}

// quantize maps v from [lo, hi] onto [0, bins), clamping outliers to the
// edge bins.
func quantize(v, lo, hi float64, bins int) int {
	frac := (v - lo) / (hi - lo)
	b := int(frac * float64(bins))
	if b < 0 {
		return 0
	}
	if b >= bins {
		return bins - 1
	}
	return b
}

// BinValue returns the representative (lower-edge) raw value of a bin under
// the window — for presenting query ranges back in data units.
func BinValue(bin int, window [2]float64, bins int) float64 {
	return window[0] + float64(bin)/float64(bins)*(window[1]-window[0])
}
