// Package codec reads a stored materialized view — the schema, the wavelet
// filter identity, and the transformed data vector Δ̂ — as a stream of
// coefficients in ascending key order, and frames the shard wire protocol
// (wire.go). A view file is a .wvls layout (internal/storage/layout, which
// also writes it and does the reading Decode hands on).
package codec

import (
	"fmt"
	"io"

	"repro/internal/dataset"
	"repro/internal/storage"
	"repro/internal/storage/layout"
)

// Header is everything a view file declares before its coefficients.
type Header struct {
	FilterName string
	TupleCount int64
	Schema     *dataset.Schema
	// Windows holds the per-dimension quantization windows mapping bins back
	// to raw units; nil when none were recorded.
	Windows [][2]float64
	// Count is the number of nonzero coefficients the file declares, and
	// hands over.
	Count int
}

// Snapshot is the deserialized form of a stored database.
type Snapshot struct {
	Header
	// Keys and Values hold the nonzero entries of Δ̂ in ascending key order.
	Keys   []int
	Values []float64
}

// Read deserializes a snapshot, verifying the header, its geometry and
// every checksum.
func Read(r io.Reader) (*Snapshot, error) {
	snap := new(Snapshot)
	err := Decode(r, func(h *Header) (func(int, float64), error) {
		snap.Header = *h
		snap.Keys = make([]int, 0, h.Count)
		snap.Values = make([]float64, 0, h.Count)
		return func(k int, v float64) {
			snap.Keys = append(snap.Keys, k)
			snap.Values = append(snap.Values, v)
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return snap, nil
}

// Decode is the streaming view-file reader. It parses and checks the
// header, hands it to begin, and then feeds the function begin returned
// every nonzero coefficient in ascending key order inside the schema's
// domain, through layout.Decode. begin sees Count before any coefficient
// arrives, so it can size its destination once; an error from begin aborts
// the read and is returned as is. layout.Decode maps r when it is a regular
// file and reads it whole otherwise, so every size the header announces is
// checked against the bytes the stream holds before anything is sized from
// it.
//
// Coefficients can be handed over before the checksums that cover them are
// verified: a caller must not publish what it received unless Decode
// returns nil.
func Decode(r io.Reader, begin func(*Header) (func(key int, value float64), error)) error {
	return layout.Decode(r, func(lh *layout.Header) (func(int, float64), error) {
		m := lh.Meta
		if m == nil {
			return nil, fmt.Errorf("codec: layout embeds no database metadata")
		}
		schema, err := dataset.NewSchema(m.Names, m.Sizes)
		if err != nil {
			return nil, fmt.Errorf("codec: invalid stored schema: %w", err)
		}
		if schema.Cells() != lh.Cells {
			return nil, fmt.Errorf("codec: layout domain of %d cells, its schema has %d", lh.Cells, schema.Cells())
		}
		return begin(&Header{
			FilterName: m.FilterName,
			TupleCount: m.TupleCount,
			Schema:     schema,
			Windows:    m.Windows,
			Count:      lh.Nonzero,
		})
	})
}

// Store materializes the snapshot's coefficients as a hash store.
func (s *Snapshot) Store() *storage.HashStore {
	st := storage.NewHashStoreSized(len(s.Keys))
	for i, k := range s.Keys {
		st.Add(k, s.Values[i])
	}
	return st
}
