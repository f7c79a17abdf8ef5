package repro

import "repro/internal/storage/layout"

// OpenLayoutPread opens a layout file on the positioned-read tier, as
// OpenLayout does where the mapping fails.
func OpenLayoutPread(path string) (*Database, error) {
	return openLayout(path, layout.Options{DisableMmap: true})
}
