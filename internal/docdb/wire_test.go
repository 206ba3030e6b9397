package docdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := request{Op: "get", Collection: "c", ID: "x"}
	if _, err := writeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out request
	if _, err := readFrame(&buf, &out); err != nil {
		t.Fatal(err)
	}
	if out.Op != in.Op || out.Collection != in.Collection || out.ID != in.ID {
		t.Fatalf("round trip: %+v vs %+v", out, in)
	}
}

// countingWriter records how many Write calls a frame takes. The framing
// layer must coalesce header and body into ONE write so a fault can never
// land a header whose body was lost.
type countingWriter struct {
	bytes.Buffer
	calls int
}

func (w *countingWriter) Write(b []byte) (int, error) {
	w.calls++
	return w.Buffer.Write(b)
}

func TestWriteFrameIsSingleWrite(t *testing.T) {
	var w countingWriter
	if _, err := writeFrame(&w, request{Op: "put", Collection: "models", ID: "x", Doc: Document{"k": "v"}}); err != nil {
		t.Fatal(err)
	}
	if w.calls != 1 {
		t.Fatalf("frame took %d writes; header and body must go out in one", w.calls)
	}
	var out request
	if _, err := readFrame(&w.Buffer, &out); err != nil {
		t.Fatal(err)
	}
	if out.Op != "put" || out.ID != "x" {
		t.Fatalf("round trip through single write: %+v", out)
	}
}

func TestReadFrameRejectsTruncatedHeader(t *testing.T) {
	// A connection dying inside the 4-byte length prefix must error, not
	// hang or fabricate a frame.
	for _, n := range []int{0, 1, 3} {
		var buf bytes.Buffer
		if _, err := writeFrame(&buf, request{Op: "ping"}); err != nil {
			t.Fatal(err)
		}
		var out request
		if _, err := readFrame(bytes.NewReader(buf.Bytes()[:n]), &out); err == nil {
			t.Fatalf("expected error for %d-byte header", n)
		}
	}
}

func TestReadFrameRejectsOversizedLength(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], maxFrame+1)
	var out request
	if _, err := readFrame(bytes.NewReader(hdr[:]), &out); err == nil {
		t.Fatal("expected error for oversized frame")
	}
}

func TestReadFrameRejectsTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	if _, err := writeFrame(&buf, request{Op: "ping"}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	var out request
	if _, err := readFrame(bytes.NewReader(raw[:len(raw)-2]), &out); err == nil {
		t.Fatal("expected error for truncated body")
	}
}

func TestReadFrameRejectsGarbageJSON(t *testing.T) {
	body := []byte("{not json")
	var buf bytes.Buffer
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(body)))
	buf.Write(hdr[:])
	buf.Write(body)
	var out request
	if _, err := readFrame(&buf, &out); err == nil {
		t.Fatal("expected error for bad JSON")
	}
}

func TestWriteFrameRejectsUnmarshalable(t *testing.T) {
	if _, err := writeFrame(&bytes.Buffer{}, func() {}); err == nil {
		t.Fatal("expected error for unmarshalable value")
	}
}

func TestServerSurvivesGarbageConnection(t *testing.T) {
	srv, err := NewServer(NewMemStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// A connection that sends garbage must not take the server down.
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cc := c.conns[0]
	cc.mu.Lock()
	cc.mux.conn.Write([]byte(strings.Repeat("x", 64)))
	cc.mu.Unlock()
	c.Close()

	// A healthy client still works afterwards.
	c2, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Ping(); err != nil {
		t.Fatal(err)
	}
}

// TestReadFrameAllocatesForWhatArrived: a length prefix is four bytes of
// the peer's say-so. Reading a frame must commit memory in proportion to
// the body bytes that actually arrived, not to the prefix.
func TestReadFrameAllocatesForWhatArrived(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], maxFrame)
	cases := []struct {
		name string
		body []byte
		end  error
		want error
	}{
		{"header then EOF", nil, io.EOF, io.EOF},
		{"ten bytes then EOF", make([]byte, 10), io.EOF, io.ErrUnexpectedEOF},
		{"ten bytes then deadline", make([]byte, 10), os.ErrDeadlineExceeded, os.ErrDeadlineExceeded},
	}
	for _, tc := range cases {
		// A peer that sent this much and stopped.
		r := io.MultiReader(bytes.NewReader(hdr[:]), bytes.NewReader(tc.body), iotest.ErrReader(tc.end))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var out request
		n, err := readFrame(r, &out)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, tc.want) || n != len(hdr) {
			t.Errorf("%s: got (%d, %v), want (%d, %v)", tc.name, n, err, len(hdr), tc.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 2<<20 {
			t.Errorf("%s: a stalled %d-byte body allocated %d bytes", tc.name, len(tc.body), grew)
		}
	}

	// A frame larger than the first chunk still round-trips byte-exact.
	in := request{Op: "put", Doc: Document{"blob": strings.Repeat("0123456789abcdef", 3<<20/16)}}
	var buf bytes.Buffer
	wrote, err := writeFrame(&buf, in)
	if err != nil {
		t.Fatal(err)
	}
	var out request
	read, err := readFrame(&buf, &out)
	if err != nil || read != wrote || wrote < 3<<20 {
		t.Fatalf("3 MiB frame: wrote %d, read %d, err %v", wrote, read, err)
	}
	if out.Doc["blob"] != in.Doc["blob"] {
		t.Fatal("3 MiB frame body changed in transit")
	}
}
