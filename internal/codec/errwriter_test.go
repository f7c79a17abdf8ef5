package codec

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/storage"
)

// failWriter fails after n bytes have been written, exercising every write
// error branch of the view writer.
type failWriter struct {
	n       int
	written int
}

func (w *failWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		can := w.n - w.written
		if can < 0 {
			can = 0
		}
		w.written += can
		return can, fmt.Errorf("synthetic write failure after %d bytes", w.n)
	}
	w.written += len(p)
	return len(p), nil
}

func TestWriteSurfacesWriterErrors(t *testing.T) {
	schema := dataset.MustSchema([]string{"x", "y"}, []int{8, 8})
	store := storage.NewHashStore()
	for i := 0; i < 10; i++ {
		store.Add(i*3, float64(i)+0.5)
	}
	// Find the full length first.
	var full bytes.Buffer
	if err := writeView(&full, schema, "Db4", 7, store, nil); err != nil {
		t.Fatal(err)
	}
	// Fail at a few byte offsets spanning header, schema, coefficients and
	// trailer. bufio batches writes, so not every offset maps to a distinct
	// branch — but the call must fail at every truncation point.
	offsets := []int{0, full.Len() / 2, full.Len() - 2}
	for _, off := range offsets {
		if err := writeView(&failWriter{n: off}, schema, "Db4", 7, store, nil); err == nil {
			t.Errorf("Write with failure at byte %d did not error", off)
		}
	}
}
