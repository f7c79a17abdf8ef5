//go:build !unix || race

package storage

// mapSlice is make on platforms without the unix mmap syscall, and in -race
// builds, whose detector sees only Go heap memory: the slice lives in the Go
// heap (see offheap_unix.go).
func mapSlice[T any](n int) []T { return make([]T, n) }

// unmapSlice matches offheap_unix.go; a heap slice is the collector's.
func unmapSlice[T any](_ []T) {}
