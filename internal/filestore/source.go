package filestore

import (
	"errors"
	"io"
)

// Source turns a function that writes a blob into the reader SaveAs takes.
// SaveAs consumes it as io.Copy does, through WriteTo, so write runs once,
// on the caller's goroutine, straight into the store's writer — no pipe, no
// goroutine, no copy in between.
//
// Read fails with errSourceRead: a consumer that calls it does not keep the
// Blobs.SaveAs contract, and serializing the whole blob into memory to
// serve it would hide that.
func Source(write func(io.Writer) (int64, error)) io.Reader {
	return source(write)
}

type source func(io.Writer) (int64, error)

var errSourceRead = errors.New("filestore: a Source is consumed through io.WriterTo, as Blobs.SaveAs requires; Read is not supported")

func (s source) WriteTo(w io.Writer) (int64, error) { return s(w) }

func (source) Read([]byte) (int, error) { return 0, errSourceRead }
