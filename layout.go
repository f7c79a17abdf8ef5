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

// LayoutFamily names one (plan, penalty) workload whose retrieval schedule
// should shape the persistent layout. The first family supplied to
// SaveLayout dictates the physical on-disk order; every family is recorded
// in the file by label and penalty fingerprint.
type LayoutFamily struct {
	// Label is a short human-readable name recorded in the file ("sse",
	// "weighted-q3", …).
	Label string
	// Plan is the prepared master list whose schedule orders the keys.
	Plan *Plan
	// Penalty selects the schedule: layout order is
	// Plan.ScheduleFor(Penalty)'s key order.
	Penalty Penalty
}

// LayoutOptions configures SaveLayout.
type LayoutOptions struct {
	// BlockSize is the block granularity in slots; 0 selects
	// layout.DefaultBlockSize.
	BlockSize int
	// Families optionally supplies schedule families (see LayoutFamily);
	// supplying any selects the sparse shape, the one with a schedule order.
	// With none, the file is dense when that is smaller, and a sparse
	// file's order is canonical: |coefficient| descending.
	Families []LayoutFamily
}

// LayoutCandidates is what SaveLayout weighed: the file's size in each of
// the two shapes, and whether it wrote the dense one.
type LayoutCandidates = layout.Candidates

// SaveLayout writes the database's coefficients to path in the .wvls
// persistent format, in whichever of its two shapes is smaller: dense —
// every cell's value in key order, checksummed in blocks — or sparse —
// coefficients physically ordered by retrieval importance, checksummed in
// blocks, behind a compressed key index. The file embeds the database identity (schema, filter, tuple
// count, windows) so OpenLayout can reassemble a servable view from it
// alone. The store must be enumerable. It returns both shapes' sizes, so a
// caller can report the choice without reading the file back.
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
	families := make([]layout.FamilyOrder, 0, len(opts.Families))
	for i, f := range opts.Families {
		if f.Plan == nil || f.Penalty == nil {
			return LayoutCandidates{}, fmt.Errorf("repro: layout family %d has a nil plan or penalty", i)
		}
		if f.Label == "" {
			return LayoutCandidates{}, fmt.Errorf("repro: layout family %d has no label", i)
		}
		families = append(families, layout.FamilyOrder{
			Label:       f.Label,
			Fingerprint: f.Penalty.Fingerprint(),
			Keys:        f.Plan.ScheduleFor(f.Penalty).KeyOrder(),
		})
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
		Families: families,
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
		return nil, fmt.Errorf("repro: layout %s embeds no database metadata; rebuild it from the database (wvlayout)", path)
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

// LayoutStats is a point-in-time snapshot of the layout store's serving
// tiers; see layout.Stats.
type LayoutStats = layout.Stats

// LayoutStats snapshots the layout store's tier counters; ok is false for
// databases not opened with OpenLayout.
func (db *Database) LayoutStats() (stats LayoutStats, ok bool) {
	if db.layout == nil {
		return LayoutStats{}, false
	}
	return db.layout.Stats(), true
}
