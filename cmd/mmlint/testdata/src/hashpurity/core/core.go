// Package core is an mmlint fixture for hashpurity: its path contains the
// "core" segment, where the one digest entry point is the function that
// hands a state dict to the file store, matched by name.
package core

import (
	"io"
	"time"
)

// saveStateDict is the entry point: the bytes it stores must not depend on
// when it runs.
func saveStateDict(w io.Writer, params []byte) error {
	if _, err := w.Write(stamp()); err != nil {
		return err
	}
	_, err := w.Write(params)
	return err
}

// stamp leaks the wall clock into the stored bytes.
func stamp() []byte {
	return []byte(time.Now().Format(time.RFC3339))
}

// saveDocument has no entry-point name, so its clock read is not a
// hashpurity finding.
func saveDocument(w io.Writer) error {
	_, err := w.Write([]byte(time.Now().Format(time.RFC3339)))
	return err
}

var _, _ = saveStateDict, saveDocument
