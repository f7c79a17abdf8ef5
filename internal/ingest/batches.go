package ingest

import (
	"fmt"
	"io"

	"repro/internal/mvcc"
)

// DefaultBatchSize is the tuple count per emitted batch when CSVBatches is
// called with batchSize ≤ 0: large enough to amortize the per-layer
// overhead, small enough to bound the transform's working set.
const DefaultBatchSize = 4096

// CSVBatches streams the reader's CSV content into write batches of at most
// batchSize tuples and hands each finished batch to emit — the adoption
// path from "I have a CSV" straight into Database.Apply, without
// materializing a full Δ array (memory is one batch, not one domain).
//
// The first record must be a header containing every requested column, and
// every column must carry an explicit quantization window (Min < Max):
// streaming rules out the auto-window discovery scan of CSV. Rows with
// unparsable or missing values are skipped and counted. Emitted batches are
// handed off — the callback may retain or Apply them; a non-nil callback
// error aborts the stream and is returned verbatim. rows counts the tuples
// emitted across all batches.
func CSVBatches(r io.Reader, cols []Column, batchSize int, emit func(*mvcc.Batch) error) (rows, skipped int, err error) {
	if emit == nil {
		return 0, 0, fmt.Errorf("ingest: nil emit callback")
	}
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	for _, c := range cols {
		if c.Min == 0 && c.Max == 0 {
			return 0, 0, fmt.Errorf("ingest: column %q has no quantization window; streaming ingest needs explicit [min..max] windows", c.Name)
		}
		if c.Max <= c.Min {
			return 0, 0, fmt.Errorf("ingest: column %q window [%g..%g] is empty", c.Name, c.Min, c.Max)
		}
	}
	rr, err := newRowReader(r, cols)
	if err != nil {
		return 0, 0, err
	}
	batch := mvcc.NewBatch()
	coords := make([]int, len(cols))
	for {
		vals, err := rr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return rows, rr.skipped, err
		}
		for i, v := range vals {
			coords[i] = quantize(v, cols[i].Min, cols[i].Max, cols[i].Bins)
		}
		batch.Add(coords, 1)
		rows++
		if batch.Len() >= batchSize {
			if err := emit(batch); err != nil {
				return rows, rr.skipped, err
			}
			batch = mvcc.NewBatch()
		}
	}
	if batch.Len() > 0 {
		if err := emit(batch); err != nil {
			return rows, rr.skipped, err
		}
	}
	return rows, rr.skipped, nil
}
