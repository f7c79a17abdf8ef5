package codec

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"repro/internal/dataset"
	"repro/internal/storage/layout"
)

// sized returns r's remaining bytes as a reader at offsets from 0, and how
// many there are. A regular file and an in-memory reader are read in place;
// anything else is read whole into memory first, so that the header's
// announced sizes can always be checked before anything is sized from them.
func sized(r io.Reader) (io.ReaderAt, int64, error) {
	switch s := r.(type) {
	case *os.File:
		if st, err := s.Stat(); err == nil && st.Mode().IsRegular() {
			if at, err := s.Seek(0, io.SeekCurrent); err == nil {
				if at == 0 {
					return s, st.Size(), nil
				}
				return io.NewSectionReader(s, at, st.Size()-at), st.Size() - at, nil
			}
		}
	case interface { // bytes.Reader, strings.Reader
		io.ReaderAt
		Len() int
		Size() int64
	}:
		n := int64(s.Len())
		if n == s.Size() {
			return s, n, nil
		}
		return io.NewSectionReader(s, s.Size()-n, n), n, nil
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, 0, err
	}
	return bytes.NewReader(data), int64(len(data)), nil
}

// decodeLayout reads a .wvls file of size bytes through layout.Decode,
// handing begin the header a .wvdb stream of the same view declares.
func decodeLayout(r io.ReaderAt, size int64, begin func(*Header) (func(int, float64), error)) error {
	return layout.Decode(r, size, func(lh *layout.Header) (func(int, float64), error) {
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
