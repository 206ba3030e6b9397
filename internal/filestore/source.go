package filestore

import (
	"bytes"
	"io"
)

// Source turns a function that writes a blob into the reader SaveAs takes.
// Every store in this repository consumes it through WriteTo, so write runs
// once, on the caller's goroutine, straight into the store's writer — no
// pipe, no goroutine, no copy in between.
//
// Read exists only so a Blobs that does not honor io.WriterTo stays
// correct: its first call runs write into memory and later calls serve
// that buffer.
func Source(write func(io.Writer) (int64, error)) io.Reader {
	return &source{write: write}
}

type source struct {
	write func(io.Writer) (int64, error)
	buf   *bytes.Reader // the blob, once Read had to materialize it
	err   error         // what write returned when it did
}

func (s *source) WriteTo(w io.Writer) (int64, error) {
	if s.buf == nil {
		return s.write(w)
	}
	// A consumer that began with Read (bufio.Reader.WriteTo does) gets
	// the rest of what Read materialized.
	if s.err != nil {
		return 0, s.err
	}
	return s.buf.WriteTo(w)
}

func (s *source) Read(p []byte) (int, error) {
	if s.buf == nil {
		var b bytes.Buffer
		_, s.err = s.write(&b)
		s.buf = bytes.NewReader(b.Bytes())
	}
	if s.err != nil {
		return 0, s.err
	}
	return s.buf.Read(p)
}
