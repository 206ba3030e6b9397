// Package core is an mmlint fixture: its digest entry point reaches the
// filestore fixture's Store only by dispatch through the Blobs interface.
package core

import "repro/cmd/mmlint/testdata/src/implementer/filestore"

func saveStateDict(files filestore.Blobs, params []byte) error {
	return files.SaveAs("blob", params)
}

var _ = saveStateDict
