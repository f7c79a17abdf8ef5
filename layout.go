package repro

import (
	"fmt"
	"io"
	"math"

	"repro/internal/dataset"
	"repro/internal/storage"
	"repro/internal/storage/layout"
	"repro/internal/wavelet"
)

// layoutStore lets repro.go name the layout store type without importing
// the layout package everywhere.
type layoutStore = layout.Store

// LayoutOptions configures SaveLayout.
type LayoutOptions struct {
	// BlockSize is the block granularity in slots; 0 selects
	// layout.DefaultBlockSize.
	BlockSize int
}

// LayoutCandidates is what SaveLayout weighed: the file's size in each of
// the two shapes, and whether it wrote the dense one.
type LayoutCandidates = layout.Candidates

// SaveLayout writes the database's coefficients to path in the .wvls
// persistent format, in one of its two shapes: dense — every cell's value in
// key order, checksummed in blocks — when at least half the cells are
// nonzero, otherwise sparse — the nonzero coefficients' values in key
// order, checksummed in blocks, behind a compressed key index. The file
// embeds the database identity (schema, filter, tuple count, windows) so
// OpenLayout can reassemble a servable view from it alone. The store must be
// enumerable. It returns both shapes' sizes, so a caller can report the
// choice without reading the file back.
//
// The file replaces path by a rename (layout.WriteFile), never in place: a
// process serving the old file from its mapping keeps answering from it.
func (db *Database) SaveLayout(path string, opts LayoutOptions) (LayoutCandidates, error) {
	var c LayoutCandidates
	err := layout.WriteFile(path, func(w io.Writer) (err error) {
		c, err = db.encodeLayout(w, opts)
		return err
	})
	return c, err
}

// encodeLayout writes the .wvls file SaveLayout describes to w. An MVCC
// database pins one version, so the tuple count and the coefficients
// describe the same state even while writes land.
func (db *Database) encodeLayout(w io.Writer, opts LayoutOptions) (LayoutCandidates, error) {
	st, tuples := db.base, db.TupleCount()
	if db.mvcc != nil {
		sn := db.mvcc.Snapshot()
		defer sn.Release()
		st, tuples = sn.View(), int64(math.Round(sn.TupleWeight()))
	}
	enum, ok := st.(storage.Enumerable)
	if !ok {
		return LayoutCandidates{}, fmt.Errorf("repro: store %T does not support enumeration; cannot build a layout", st)
	}
	n := st.NonzeroCount()
	keys := make([]int, 0, n)
	values := make([]float64, 0, n)
	if err := enum.Walk(func(k int, v float64) bool {
		keys = append(keys, k)
		values = append(values, v)
		return true
	}); err != nil {
		return LayoutCandidates{}, fmt.Errorf("repro: reading the view: %w", err)
	}
	return layout.Encode(w, keys, values, layout.WriteOptions{
		Cells:     db.schema.Cells(),
		BlockSize: opts.BlockSize,
		Meta: &layout.Meta{
			FilterName: db.filter.Name,
			TupleCount: tuples,
			Names:      db.schema.Names,
			Sizes:      db.schema.Sizes,
			Windows:    db.windows,
		},
	})
}

// OpenLayout opens a .wvls layout file written by SaveLayout (or converted
// with cmd/wvlayout) as a read-only database served straight from the
// file's bytes: zero-copy out of an mmap (read into memory where the
// platform cannot map it), each block checksummed the first time it is
// read. The file must embed database metadata — a bare layout written
// through the storage API lacks the schema and cannot be served.
//
// The view is safe for concurrent retrieval and read-only: Insert, Delete
// and Apply fail with ErrReadOnly until EnableMVCC makes the mapping the
// frozen base of a writable overlay. Close releases the mapping and the file
// handle. A layout serves bit-identical values, so every progressive
// estimate equals the in-memory run's. This is how wvqd, wvq and
// wvlayout open a view file in every mode.
func OpenLayout(path string) (*Database, error) {
	s, err := layout.Open(path)
	if err != nil {
		return nil, err
	}
	meta := s.Meta()
	if meta == nil {
		_ = s.Close()
		return nil, fmt.Errorf("repro: layout %s embeds no database metadata; rebuild it from the source data with wvload or wvq -create", path)
	}
	schema, err := dataset.NewSchema(meta.Names, meta.Sizes)
	if err != nil {
		_ = s.Close()
		return nil, fmt.Errorf("repro: layout schema invalid: %w", err)
	}
	if schema.Cells() != s.Size() {
		_ = s.Close()
		return nil, fmt.Errorf("repro: layout domain %d cells does not match schema (%d)", s.Size(), schema.Cells())
	}
	filter, err := wavelet.ByName(meta.FilterName)
	if err != nil {
		_ = s.Close()
		return nil, fmt.Errorf("repro: layout uses %w", err)
	}
	db := newDatabase(schema, filter, s, meta.TupleCount, s.Mass())
	db.windows, db.layout = meta.Windows, s
	return db, nil
}

// LayoutBacked reports whether this database serves coefficients from a
// persistent layout file (i.e. it was opened with OpenLayout).
func (db *Database) LayoutBacked() bool { return db.layout != nil }

// LayoutStats is a point-in-time snapshot of the layout store's counters;
// see layout.Stats.
type LayoutStats = layout.Stats

// LayoutStats snapshots the layout store's counters; ok is false for
// databases not opened with OpenLayout.
func (db *Database) LayoutStats() (stats LayoutStats, ok bool) {
	if db.layout == nil {
		return LayoutStats{}, false
	}
	return db.layout.Stats(), true
}

// LayoutSection is one named byte range of a .wvls file; see
// layout.Section.
type LayoutSection = layout.Section

// LayoutSections lists the sections of the file the database was opened
// from, in file order: the header, the key index (a sparse file's only) and
// the values with their checksums. Their sizes sum to the file's. ok is
// false for databases not opened with OpenLayout.
func (db *Database) LayoutSections() (sections []LayoutSection, ok bool) {
	if db.layout == nil {
		return nil, false
	}
	return db.layout.Sections(), true
}
