//go:build !unix

package persist

import "os"

// mmapFile maps nothing on platforms without a POSIX mmap: checkpoints are
// read into memory whole instead.
func mmapFile(_ *os.File, _ int64) []byte { return nil }

// munmapFile matches the unix build's signature; nothing to release.
func munmapFile(_ []byte) {}
