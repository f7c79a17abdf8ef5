package repro

import (
	"fmt"
	"io"
	"math"

	"repro/internal/codec"
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

// SaveLayout writes the database's coefficients to path in the .wvls
// persistent format: the nonzero coefficients' values in key order,
// checksummed in blocks, behind one of two indexes, whichever the counts
// make smaller — rank words, an 80-byte record per 512 cells, from about
// 15 % of the cells nonzero up, a key directory below that. The file
// embeds the database identity (schema, filter, tuple count, windows) so
// OpenLayout can reassemble a servable view from it alone. The store must be
// enumerable.
//
// The file replaces path by a rename (layout.WriteFile), never in place: a
// process serving the old file from its mapping keeps answering from it.
func (db *Database) SaveLayout(path string, opts LayoutOptions) error {
	return layout.WriteFile(path, func(w io.Writer) error { return db.encodeLayout(w, opts) })
}

// encodeLayout writes the .wvls file SaveLayout describes to w. An MVCC
// database pins one version, so the tuple count and the coefficients
// describe the same state even while writes land.
func (db *Database) encodeLayout(w io.Writer, opts LayoutOptions) error {
	st, tuples := db.base, db.TupleCount()
	if db.mvcc != nil {
		sn := db.mvcc.Snapshot()
		defer sn.Release()
		st, tuples = sn.View(), int64(math.Round(sn.TupleWeight()))
	}
	enum, ok := st.(storage.Enumerable)
	if !ok {
		return fmt.Errorf("repro: store %T does not support enumeration; cannot build a layout", st)
	}
	n := st.NonzeroCount()
	keys := make([]int, 0, n)
	values := make([]float64, 0, n)
	if err := enum.Walk(func(k int, v float64) bool {
		keys = append(keys, k)
		values = append(values, v)
		return true
	}); err != nil {
		return fmt.Errorf("repro: reading the view: %w", err)
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
	db, err := layoutView(s)
	if err != nil {
		_ = s.Close()
		return nil, fmt.Errorf("repro: layout %s: %w", path, err)
	}
	return db, nil
}

// layoutView is the read-only database that serves s's bytes in place, its
// mass the header's.
func layoutView(s *layout.Store) (*Database, error) {
	h, filter, err := identityOf(s)
	if err != nil {
		return nil, err
	}
	db := newDatabase(h.Schema, filter, s, h.TupleCount, s.Mass())
	db.windows, db.layout = h.Windows, s
	return db, nil
}

// LoadDatabase reads a .wvls database file, written with Save or
// SaveLayout, into memory. The file is read once, from r's current offset
// on (layout.Load), and its coefficients are walked in ascending key order
// into the base store storage.Build sizes from the file's header — the
// dense array when at least a quarter of the declared domain is nonzero, the
// sparse store otherwise — with the coefficient mass summed on the way in. The
// filter is resolved from the built-in set by name. Nothing is returned
// unless every checksum of the file verifies, and the copy of the file is
// released before LoadDatabase returns: the database serves its own store,
// not the file's bytes. To serve a file, map it with OpenLayout instead
// (and EnableMVCC to write over the mapping).
func LoadDatabase(r io.Reader) (*Database, error) {
	s, err := layout.Load(r)
	if err != nil {
		return nil, err
	}
	defer func() { _ = s.Close() }()
	h, filter, err := identityOf(s)
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	var mass float64
	store, err := storage.Build(h.Schema.Cells(), h.Count, func(fn func(int, float64) bool) error {
		return s.Walk(func(k int, v float64) bool {
			mass += math.Abs(v)
			return fn(k, v)
		})
	})
	if err != nil {
		return nil, err
	}
	db := newDatabase(h.Schema, filter, store, h.TupleCount, mass)
	db.windows = h.Windows
	return db, nil
}

// identityOf returns the database identity a view file's header embeds
// (codec.HeaderOf) and the built-in filter it names; a mapped view and a
// loaded database both take theirs from here.
func identityOf(s *layout.Store) (*codec.Header, *Filter, error) {
	h, err := codec.HeaderOf(s)
	if err != nil {
		return nil, nil, err
	}
	filter, err := wavelet.ByName(h.FilterName)
	if err != nil {
		return nil, nil, fmt.Errorf("stored database uses %w", err)
	}
	return h, filter, nil
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
// from, in file order: the header, the index ("rank words" or "key
// index") and the values with their checksums. Their sizes sum to the file's. ok is
// false for databases not opened with OpenLayout.
func (db *Database) LayoutSections() (sections []LayoutSection, ok bool) {
	if db.layout == nil {
		return nil, false
	}
	return db.layout.Sections(), true
}
