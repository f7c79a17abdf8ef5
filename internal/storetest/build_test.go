package storetest

import (
	"strings"
	"testing"

	"repro/internal/storage"
)

// TestBuildRejectsNegativeKeys: BatchGetCtx reports a negative key as out of
// range in every store, so a base built with one would hold a coefficient no
// retrieval can read. Build refuses it for both shapes, with the array's
// message shape, and returns no store.
func TestBuildRejectsNegativeKeys(t *testing.T) {
	for name, cells := range map[string]int{"array": 8, "sparse": 1 << 20, "sparse, unknown domain": 0} {
		s, err := storage.Build(cells, 2, func(fn func(int, float64) bool) error {
			_ = fn(-1, 1) && fn(3, 1)
			return nil
		})
		if err == nil || !strings.HasPrefix(err.Error(), "storage: key -1 out of range") || s != nil {
			t.Errorf("%s: Build with key -1 = (%v, %v), want no store and \"storage: key -1 out of range …\"", name, s, err)
		}
	}
}
