//go:build linux && !race

package storage

import "syscall"

// adviseHugePages asks the kernel to back mapping with transparent huge
// pages. With THP in madvise mode (a common default) an anonymous mapping
// gets 2 MiB pages only when advised, so a 64 MiB array is first touched in
// 32 faults instead of 16 384, and each TLB entry then covers 512 times the
// memory for random lookups. The error is ignored: a kernel without THP, or
// with it set to never, serves the mapping in base pages as before.
func adviseHugePages(mapping []byte) {
	_ = syscall.Madvise(mapping, syscall.MADV_HUGEPAGE)
}
