//go:build unix

package layout

import (
	"os"
	"syscall"
)

// mmapFile maps the whole file read-only and shared; Store serves every read
// from the mapping. When it fails, the store reads the file into memory
// instead.
func mmapFile(f *os.File, size int64) ([]byte, error) {
	if size <= 0 || size > int64(int(^uint(0)>>1)) {
		return nil, syscall.EINVAL
	}
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

// munmapFile releases a mapping produced by mmapFile.
func munmapFile(b []byte) error { return syscall.Munmap(b) }

// mapAnon returns n zeroed bytes in an anonymous private mapping, outside
// the Go heap, or nil when the kernel refuses it; munmapFile releases it.
func mapAnon(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil
	}
	return b
}
