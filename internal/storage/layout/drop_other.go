//go:build !linux

package layout

// dropPages keeps the pages where the platform's syscall package has no
// madvise; reads are the same either way.
func dropPages([]byte) {}
