package storetest

import (
	"strings"
	"testing"

	"repro/internal/storage"
)

// TestAddRejectsNegativeKeys: BatchGetCtx reports a negative key as out of
// range in every store, so an Add that accepted one would write a
// coefficient no retrieval can read. Every Updatable base store panics
// instead, with ArrayStore's message shape.
func TestAddRejectsNegativeKeys(t *testing.T) {
	stores := map[string]storage.Updatable{
		"array": storage.NewArrayStore(make([]float64, 8)),
		"hash":  storage.NewHashStore(),
	}
	for name, s := range stores {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "storage: key -1 out of range") {
					t.Errorf("%s: Add(-1, 1) panicked with %q, want \"storage: key -1 out of range …\"", name, msg)
				}
			}()
			s.Add(-1, 1)
		}()
		if n := s.NonzeroCount(); n != 0 {
			t.Errorf("%s: holds %d coefficients after the refused Add", name, n)
		}
	}
}
