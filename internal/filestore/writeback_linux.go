//go:build linux

package filestore

import (
	"os"
	"syscall"
)

// syncFileRangeWrite is SYNC_FILE_RANGE_WRITE from <linux/fs.h>, which
// package syscall does not export: start write-out of the range's dirty
// pages, wait for nothing.
const syncFileRangeWrite = 2

// startWriteback asks the kernel to begin writing f's dirty pages in
// [off, off+n) to disk without waiting for them. It is a hint that only
// moves work earlier: it promises nothing about durability (no wait, no
// metadata, no device cache flush), so its error is ignored and SaveAs's
// fsync → rename → directory fsync stay exactly where they are.
func startWriteback(f *os.File, off, n int64) {
	_ = syscall.SyncFileRange(int(f.Fd()), off, n, syncFileRangeWrite)
}
