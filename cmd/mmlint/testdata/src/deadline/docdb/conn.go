// Package docdb is an mmlint fixture for deadlinecheck: its path contains
// the "docdb" segment, so every net.Conn read/write must be preceded by an
// armed deadline.
package docdb

import (
	"bufio"
	"io"
	"net"
	"time"
)

// ReadGreedy reads with no deadline armed: a silent peer pins the caller.
func ReadGreedy(c net.Conn) ([]byte, error) {
	buf := make([]byte, 64)
	n, err := c.Read(buf)
	return buf[:n], err
}

// Relay hands the conn to a callee that can only read it (an io.Reader
// parameter has no deadline control), again with no deadline armed.
func Relay(c net.Conn, w io.Writer) error {
	_, err := io.Copy(w, c)
	return err
}

// ReadPolite arms the read deadline before reading.
func ReadPolite(c net.Conn) ([]byte, error) {
	if err := c.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
		return nil, err
	}
	buf := make([]byte, 64)
	n, err := c.Read(buf)
	return buf[:n], err
}

// ReadSuppressed documents why this read may wait forever.
func ReadSuppressed(c net.Conn) ([]byte, error) {
	buf := make([]byte, 64)
	//mmlint:ignore deadlinecheck fixture: the peer is an in-process pipe that always answers
	n, err := c.Read(buf)
	return buf[:n], err
}

// ReadBuffered builds a buffered reader over the conn — not itself a read —
// and then reads through it with no deadline armed.
func ReadBuffered(c net.Conn) (byte, error) {
	br := bufio.NewReaderSize(c, 4096)
	return br.ReadByte()
}

// ServeBuffered builds its buffered reader once and arms the read deadline
// before every frame it reads through it, as docdb's serve loop does.
func ServeBuffered(c net.Conn, frames int) error {
	br := bufio.NewReaderSize(c, 4096)
	for i := 0; i < frames; i++ {
		if err := c.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
			return err
		}
		if _, err := io.ReadFull(br, make([]byte, 4)); err != nil {
			return err
		}
	}
	return nil
}
