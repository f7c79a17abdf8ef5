//go:build unix && !race

package storage

import (
	"os"
	"syscall"
	"unsafe"
)

// mapSlice returns n zeroed elements in an anonymous private mapping outside
// the Go heap. The garbage collector neither scans such memory nor counts it
// toward its heap goal, so a pointer-free array the size of the view does not
// double the process's peak the way a heap slice does (the goal is twice the
// live heap). A slice under one page, or one the kernel refuses to map, is an
// ordinary make. T must hold no pointers: the collector cannot see into the
// mapping. On Linux the mapping is advised onto transparent huge pages
// (adviseHugePages).
//
// A -race build takes offheap_other.go instead: the race detector checks
// only addresses in the Go heap and data segment, so reads and writes of a
// mapping would go unchecked by every -race test that shares a store.
func mapSlice[T any](n int) []T {
	size := n * int(unsafe.Sizeof(*new(T)))
	if size < os.Getpagesize() {
		return make([]T, n)
	}
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]T, n)
	}
	adviseHugePages(b)
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
}

// unmapSlice releases a slice mapSlice returned; nothing may read it after.
// The slices mapSlice made on the heap are left to the collector:
// syscall.Munmap unmaps only a region syscall.Mmap returned, whole, and
// refuses any other slice with EINVAL.
func unmapSlice[T any](s []T) {
	if len(s) == 0 {
		return
	}
	b := unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
	_ = syscall.Munmap(b)
}
