package codec

import (
	"io"

	"repro/internal/dataset"
	"repro/internal/storage"
	"repro/internal/storage/layout"
)

// writeView writes the store as the .wvls view file repro.Database.Save
// writes for it: the writer's default shape, the identity in its header.
func writeView(w io.Writer, schema *dataset.Schema, filterName string, tupleCount int64, store storage.Enumerable, windows [][2]float64) error {
	var keys []int
	var values []float64
	if err := store.Walk(func(k int, v float64) bool {
		keys = append(keys, k)
		values = append(values, v)
		return true
	}); err != nil {
		return err
	}
	return layout.Encode(w, keys, values, layout.WriteOptions{
		Cells: schema.Cells(),
		Meta: &layout.Meta{
			FilterName: filterName,
			TupleCount: tupleCount,
			Names:      schema.Names,
			Sizes:      schema.Sizes,
			Windows:    windows,
		},
	})
}
