package repro

import (
	"fmt"

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
// in the file with its measured hot-region coverage so operators can see
// how well the layout serves each workload.
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
	// HotCount is the number of leading schedule slots a sparse file stores
	// raw in the mmap-served hot region; 0 selects the writer default
	// (nonzero/8), negative stores everything hot. A dense file has none.
	HotCount int
	// BlockSize is the block granularity in slots; 0 selects
	// layout.DefaultBlockSize.
	BlockSize int
	// Quantize stores block values as float32 — half their bytes, but
	// drains over the layout are no longer bit-identical to the source.
	Quantize bool
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
// coefficients physically ordered by retrieval importance, a raw
// mmap-servable hot prefix and a checksummed cold tail, behind a compressed
// key index. The file embeds the database identity (schema, filter, tuple
// count, windows) so OpenLayout can reassemble a servable view from it
// alone. The store must be enumerable. It returns both shapes' sizes, so a
// caller can report the choice without reading the file back.
func (db *Database) SaveLayout(path string, opts LayoutOptions) (LayoutCandidates, error) {
	st, ok := db.enumStore()
	if !ok {
		return LayoutCandidates{}, fmt.Errorf("repro: store %T does not support enumeration; cannot build a layout", st)
	}
	n := st.NonzeroCount()
	keys := make([]int, 0, n)
	values := make([]float64, 0, n)
	st.(storage.Enumerable).ForEachNonzero(func(k int, v float64) bool {
		keys = append(keys, k)
		values = append(values, v)
		return true
	})
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
	return layout.Write(path, keys, values, layout.WriteOptions{
		Cells:     db.schema.Cells(),
		HotCount:  opts.HotCount,
		BlockSize: opts.BlockSize,
		Quantize:  opts.Quantize,
		Meta: &layout.Meta{
			FilterName: db.filter.Name,
			TupleCount: db.TupleCount(),
			Names:      db.schema.Names,
			Sizes:      db.schema.Sizes,
			Windows:    db.windows,
		},
		Families: families,
	})
}

// OpenLayout opens a .wvls layout file written by SaveLayout (or converted
// with cmd/wvlayout) as a read-only database served straight from disk:
// zero-copy out of an mmap, each block checksummed the first time it is
// read. The file must embed database metadata — a bare layout written
// through the storage API lacks the schema and cannot be served.
//
// The view is read-only (Insert/Delete fail) and safe for concurrent
// retrieval. Close releases the mapping and the file handle. Unquantized
// layouts serve bit-identical values, so every progressive estimate equals
// the in-memory run's.
func OpenLayout(path string) (*Database, error) {
	s, err := layout.Open(path, layout.Options{})
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
	mass := s.Mass()
	db := newDatabase(schema, filter, s)
	db.windows, db.cachedMass, db.layout = meta.Windows, &mass, s
	db.tuples.Store(meta.TupleCount)
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
