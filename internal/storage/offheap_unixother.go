//go:build unix && !linux && !race

package storage

// adviseHugePages does nothing outside Linux: madvise(MADV_HUGEPAGE) is a
// Linux advice (see offheap_linux.go).
func adviseHugePages(_ []byte) {}
