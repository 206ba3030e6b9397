// Package core is an mmlint fixture: its digest entry point reaches the
// filestore fixture's Store and Index only by dispatch through the Blobs and
// Lister interfaces.
package core

import "repro/cmd/mmlint/testdata/src/implementer/filestore"

func saveStateDict(files filestore.Blobs, index filestore.Lister, params []byte) error {
	if err := index.Each(func(string, int) error { return nil }); err != nil {
		return err
	}
	return files.SaveAs("blob", params)
}

var _ = saveStateDict
