//go:build unix

package persist

import (
	"os"
	"syscall"
)

// mmapFile maps the first size bytes of f read-only, returning nil when the
// mapping is unavailable (empty file, size overflow, or a filesystem that
// refuses mmap) — callers then read the file into memory whole.
func mmapFile(f *os.File, size int64) []byte {
	if size <= 0 || int64(int(size)) != size {
		return nil
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil
	}
	return data
}

// munmapFile releases a mapping returned by mmapFile; nil is a no-op.
func munmapFile(data []byte) {
	if data != nil {
		_ = syscall.Munmap(data)
	}
}
