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

// HashedSource is Source for a blob that brings its own content hash. A
// store writes it without hashing its bytes and, once write has written
// all of them and they are durable, records what hash returns as the
// blob's content hash; an error from hash fails the save. A hash still
// being computed when write returns thus runs beside the store's fsync.
// hash must describe the bytes write wrote, and Blobs.Hash, which always
// hashes the stored content with SHA-256, does not check it.
func HashedSource(write func(io.Writer) (int64, error), hash func() (string, error)) io.Reader {
	return hashedSource{source(write), hash}
}

// contentHasher is what SaveAs looks for on its reader: a source that
// names its own content hash.
type contentHasher interface {
	ContentHash() (string, error)
}

type source func(io.Writer) (int64, error)

var errSourceRead = errors.New("filestore: a Source is consumed through io.WriterTo, as Blobs.SaveAs requires; Read is not supported")

func (s source) WriteTo(w io.Writer) (int64, error) { return s(w) }

func (source) Read([]byte) (int, error) { return 0, errSourceRead }

type hashedSource struct {
	source
	hash func() (string, error)
}

func (s hashedSource) ContentHash() (string, error) { return s.hash() }
