//go:build linux

package layout

import "syscall"

// dropPages advises the kernel that the mapping's resident pages are not
// needed: they leave the process's resident set, and a later read faults
// them in again from the page cache.
func dropPages(b []byte) { _ = syscall.Madvise(b, syscall.MADV_DONTNEED) }
