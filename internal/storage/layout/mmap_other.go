//go:build !unix

package layout

import (
	"fmt"
	"os"
)

// mmapFile always fails on platforms without the unix mmap syscall; the
// store reads the file into memory instead.
func mmapFile(_ *os.File, _ int64) ([]byte, error) {
	return nil, fmt.Errorf("layout: mmap unsupported on this platform")
}

// mapAnon has no anonymous mapping to give; load reads into the heap.
func mapAnon(int) []byte { return nil }

// munmapFile matches mmap_unix; unreachable when nothing is ever mapped.
func munmapFile(_ []byte) error { return nil }
