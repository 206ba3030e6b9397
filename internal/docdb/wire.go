package docdb

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// Wire protocol: every message is a uint32 little-endian length prefix
// followed by that many bytes of JSON. Requests carry an operation name and
// operands; responses carry either results or an error string. The framing
// is deliberately simple — what the reproduction needs from "MongoDB on a
// third machine" is a real network boundary for metadata, not an efficient
// binary protocol.
//
// One connection is multiplexed: every request carries a correlation
// sequence number (Seq) that the server echoes on the matching response, so
// responses may arrive out of order and many operations can be in flight at
// once. A client opens a connection with a "hello" request carrying its
// protocol version; the server answers with its own, and a client that does
// not read back protocolVersion fails the dial.
//
// A frame should cost one link crossing each way, not one per read call.
// After the hello, both ends read a connection through one bufio.Reader of
// connBuffer bytes, so a frame — and often the frames queued behind it —
// comes off the socket in a single Read; the client's writer drains every
// frame already queued into one Write of up to maxBatch bytes.

// maxFrame bounds a single message to guard against corrupt length prefixes.
const maxFrame = 64 << 20 // 64 MiB

// readChunk is how much of a frame body readFrame allocates before any of
// it has arrived; a larger body grows the buffer as its bytes come in, so a
// length prefix alone cannot make the reader commit maxFrame of memory.
const readChunk = 1 << 20 // 1 MiB

// connBuffer sizes the per-connection read buffer: every frame the
// workloads send fits in it whole, header and body.
const connBuffer = 64 << 10 // 64 KiB

// maxBatch caps one coalesced client Write. A batch is cut once it reaches
// the cap, so the peer's buffered reader takes it in one Read.
const maxBatch = connBuffer

// protocolVersion is the one protocol generation this package speaks,
// exchanged in the hello. Every operation of version 3 is idempotent: it
// has no insert, a client puts under an identifier it generated.
const protocolVersion = 3

// opHello is the version-check operation a client sends first.
const opHello = "hello"

type request struct {
	Op         string   `json:"op"`
	Collection string   `json:"collection,omitempty"`
	ID         string   `json:"id,omitempty"`
	Doc        Document `json:"doc,omitempty"`
	Filter     Document `json:"filter,omitempty"`
	// Next and Stop are a chain read's field names (Store.Chain).
	Next string `json:"next,omitempty"`
	Stop string `json:"stop,omitempty"`
	// Seq is the correlation identifier: unique per in-flight request on
	// one connection, echoed on the response so the client's demultiplexer
	// can pair them under out-of-order completion.
	Seq uint64 `json:"seq,omitempty"`
	// Version is carried by the hello request only.
	Version int `json:"version,omitempty"`
}

type response struct {
	OK    bool       `json:"ok"`
	Error string     `json:"error,omitempty"`
	ID    string     `json:"id,omitempty"`
	Doc   Document   `json:"doc,omitempty"`
	Docs  []Document `json:"docs,omitempty"`
	IDs   []string   `json:"ids,omitempty"`
	Stats *Stats     `json:"stats,omitempty"`
	// Seq echoes the request's correlation identifier.
	Seq uint64 `json:"seq,omitempty"`
	// Version is carried by the hello response only.
	Version int `json:"version,omitempty"`
}

// writeFrame sends v as one frame through a single Write call and returns
// the frame size put on the wire (header included), so callers can meter
// outbound bytes. Coalescing the header and body matters for failure
// atomicity: with two writes, a fault between them leaves the peer holding
// a header whose body never arrives, and the peer then misreads the *next*
// frame's bytes as that body. One write either delivers a parseable
// prefix-consistent frame or fails before anything usable is on the wire.
func writeFrame(w io.Writer, v any) (int, error) {
	msg, err := marshalFrame(v)
	if err != nil {
		return 0, err
	}
	n, err := w.Write(msg)
	return n, err
}

// marshalFrame encodes v into a complete frame (header plus body) ready for
// a single Write. The mux client marshals on the requesting goroutine and
// hands the finished frame to the writer goroutine, so an encoding error
// surfaces at the caller and the writer never blocks on marshaling.
func marshalFrame(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("docdb: encoding frame: %w", err)
	}
	if len(b) > maxFrame {
		return nil, fmt.Errorf("docdb: frame of %d bytes exceeds limit", len(b))
	}
	msg := make([]byte, 4+len(b))
	binary.LittleEndian.PutUint32(msg[:4], uint32(len(b)))
	copy(msg[4:], b)
	return msg, nil
}

// countingReader counts bytes consumed from the wrapped reader. The demux
// reader wraps its buffered reader in one, so the count is what readFrame
// took off the stream — bytes of the next frame that arrived in the same
// socket read as the previous one included. It tells a clean inter-frame
// timeout (zero bytes of the next frame consumed — safe to rearm and keep
// the connection) from a mid-frame stall (the stream is desynchronized and
// the connection must be poisoned).
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// readFrame reads one frame into v and returns the frame size taken off
// the wire (header included).
func readFrame(r io.Reader, v any) (int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return len(hdr), fmt.Errorf("docdb: frame of %d bytes exceeds limit", n)
	}
	buf := make([]byte, min(int(n), readChunk))
	for got := 0; ; {
		m, err := io.ReadFull(r, buf[got:])
		got += m
		if err == io.EOF && got > 0 {
			err = io.ErrUnexpectedEOF // the body ended between two chunks
		}
		if err != nil {
			return len(hdr), err
		}
		if got == int(n) {
			return len(hdr) + got, Unmarshal(buf, v)
		}
		buf = append(buf, make([]byte, min(int(n)-got, got))...)
	}
}
