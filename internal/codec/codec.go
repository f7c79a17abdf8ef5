// Package codec reads a stored materialized view — the schema, the wavelet
// filter identity, and the transformed data vector Δ̂ — from a .wvls view
// file (internal/storage/layout, which writes it and serves its bytes):
// HeaderOf checks the identity the file embeds, Read copies its
// coefficients out in ascending key order. It also frames the shard wire
// protocol (wire.go).
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
	// Count is the number of nonzero coefficients the file declares.
	Count int
}

// Snapshot is the deserialized form of a stored database.
type Snapshot struct {
	Header
	// Keys and Values hold the nonzero entries of Δ̂ in ascending key order.
	Keys   []int
	Values []float64
}

// HeaderOf returns the database identity s's file embeds, checked: the
// metadata is present, its schema is valid, and the schema's cells are the
// file's domain. Every reader of a view file takes its header from here.
func HeaderOf(s *layout.Store) (*Header, error) {
	m := s.Meta()
	if m == nil {
		return nil, fmt.Errorf("codec: layout embeds no database metadata; rebuild it from the source data with wvload or wvq -create")
	}
	schema, err := dataset.NewSchema(m.Names, m.Sizes)
	if err != nil {
		return nil, fmt.Errorf("codec: invalid stored schema: %w", err)
	}
	if schema.Cells() != s.Size() {
		return nil, fmt.Errorf("codec: layout domain of %d cells, its schema has %d", s.Size(), schema.Cells())
	}
	return &Header{
		FilterName: m.FilterName,
		TupleCount: m.TupleCount,
		Schema:     schema,
		Windows:    m.Windows,
		Count:      s.NonzeroCount(),
	}, nil
}

// Read deserializes a snapshot: it loads the file r holds once
// (layout.Load), checks its header and walks its coefficients into the
// snapshot, each block's checksum verified on the way. A damaged file
// returns no snapshot.
func Read(r io.Reader) (*Snapshot, error) {
	s, err := layout.Load(r)
	if err != nil {
		return nil, err
	}
	defer func() { _ = s.Close() }()
	h, err := HeaderOf(s)
	if err != nil {
		return nil, err
	}
	snap := &Snapshot{Header: *h, Keys: make([]int, 0, h.Count), Values: make([]float64, 0, h.Count)}
	if err := s.Walk(func(k int, v float64) bool {
		snap.Keys = append(snap.Keys, k)
		snap.Values = append(snap.Values, v)
		return true
	}); err != nil {
		return nil, err
	}
	return snap, nil
}

// Store materializes the snapshot's coefficients as a sparse store (whose
// old name, HashStore, the benchmark harness still names). The keys must
// ascend, as Read returns them.
func (s *Snapshot) Store() *storage.HashStore {
	st, err := storage.Build(0, len(s.Keys), func(fn func(int, float64) bool) error {
		for i, k := range s.Keys {
			if !fn(k, s.Values[i]) {
				break
			}
		}
		return nil
	})
	if err != nil {
		// Read walks a checked file in ascending key order, so a snapshot it
		// returned always builds.
		panic(fmt.Sprintf("codec: %v", err))
	}
	return st.(*storage.SparseStore)
}
