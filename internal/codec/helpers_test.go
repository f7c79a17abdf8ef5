package codec

import (
	"cmp"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"repro/internal/dataset"
	"repro/internal/storage"
	"repro/internal/storage/layout"
)

// writeView writes the store as the .wvls view file repro.Database.Save
// writes for it: the writer's default shape, the identity in its header.
func writeView(w io.Writer, schema *dataset.Schema, filterName string, tupleCount int64, store storage.Enumerable, windows [][2]float64) error {
	var keys []int
	var values []float64
	store.ForEachNonzero(func(k int, v float64) bool {
		keys = append(keys, k)
		values = append(values, v)
		return true
	})
	_, err := layout.Encode(w, keys, values, layout.WriteOptions{
		Cells: schema.Cells(),
		Meta: &layout.Meta{
			FilterName: filterName,
			TupleCount: tupleCount,
			Names:      schema.Names,
			Sizes:      schema.Sizes,
			Windows:    windows,
		},
	})
	return err
}

// encodeWVDB builds a version-2 .wvdb stream — the format nothing writes any
// more and Decode still reads — of the store's nonzero coefficients in
// ascending key order. windows may be nil.
func encodeWVDB(schema *dataset.Schema, filterName string, tupleCount int64, store storage.Enumerable, windows [][2]float64) []byte {
	type pair struct {
		k int
		v float64
	}
	var pairs []pair
	store.ForEachNonzero(func(k int, v float64) bool {
		pairs = append(pairs, pair{k, v})
		return true
	})
	slices.SortFunc(pairs, func(a, b pair) int { return cmp.Compare(a.k, b.k) })
	le := binary.LittleEndian
	b := append([]byte(magic), 2, 0)
	b = append(append(b, byte(len(filterName))), filterName...)
	b = le.AppendUint64(b, uint64(tupleCount))
	b = le.AppendUint16(b, uint16(len(schema.Names)))
	for i, name := range schema.Names {
		b = append(le.AppendUint16(b, uint16(len(name))), name...)
		b = le.AppendUint32(b, uint32(schema.Sizes[i]))
		var win [2]float64
		if windows != nil {
			win = windows[i]
		}
		b = le.AppendUint64(le.AppendUint64(b, math.Float64bits(win[0])), math.Float64bits(win[1]))
	}
	b = le.AppendUint64(b, uint64(len(pairs)))
	for _, p := range pairs {
		b = le.AppendUint64(le.AppendUint64(b, uint64(p.k)), math.Float64bits(p.v))
	}
	return le.AppendUint32(b, crc32.ChecksumIEEE(b))
}
