//go:build !linux

package filestore

import "os"

// startWriteback is a no-op where no write-back hint is wired up: the
// final fsync of SaveAs then writes everything, as it must anyway.
func startWriteback(*os.File, int64, int64) {}
