package docdb

// Framing under buffered reads and coalesced writes. A frame costs one
// socket read because the reader is buffered, and a batch of frames one
// socket write because the writer coalesces; neither may change where a
// frame begins or ends, whatever the link does to the bytes.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultnet"
)

// chunkReader hands out its chunks one Read at a time, as a socket hands
// out whatever arrived, and counts the Reads.
type chunkReader struct {
	chunks [][]byte
	reads  int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.chunks) == 0 {
		return 0, io.EOF
	}
	r.reads++
	n := copy(p, r.chunks[0])
	if r.chunks[0] = r.chunks[0][n:]; len(r.chunks[0]) == 0 {
		r.chunks = r.chunks[1:]
	}
	return n, nil
}

func mustFrame(t *testing.T, v any) []byte {
	t.Helper()
	f, err := marshalFrame(v)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// A frame whose bytes arrive in two pieces, split at every byte boundary
// the header and body have, decodes to the frame that was sent.
func TestFrameSplitAtEveryByteBoundary(t *testing.T) {
	want := response{OK: true, ID: "split", Doc: Document{"payload": "0123456789"}, Seq: 42}
	frame := mustFrame(t, want)
	for k := 1; k < len(frame); k++ {
		r := &chunkReader{chunks: [][]byte{frame[:k:k], frame[k:]}}
		cr := &countingReader{r: bufio.NewReaderSize(r, connBuffer)}
		var got response
		n, err := readFrame(cr, &got)
		if err != nil {
			t.Fatalf("split at %d: %v", k, err)
		}
		if n != len(frame) || cr.n != int64(len(frame)) {
			t.Fatalf("split at %d: read %d bytes (%d consumed), frame is %d", k, n, cr.n, len(frame))
		}
		if got.Seq != want.Seq || got.ID != want.ID || got.Doc["payload"] != want.Doc["payload"] {
			t.Fatalf("split at %d: decoded %+v", k, got)
		}
	}
}

// Two whole frames and the start of a third in one socket read, the rest
// of the third in the next: three frames decode, in order, from two reads.
func TestBufferedReaderCarriesFramesAcrossReads(t *testing.T) {
	frames := [][]byte{
		mustFrame(t, response{OK: true, ID: "a", Seq: 1}),
		mustFrame(t, response{OK: true, ID: "b", Seq: 2}),
		mustFrame(t, response{OK: true, ID: "c", Seq: 3}),
	}
	half := len(frames[2]) / 2
	first := bytes.Join([][]byte{frames[0], frames[1], frames[2][:half]}, nil)
	r := &chunkReader{chunks: [][]byte{first, frames[2][half:]}}
	br := bufio.NewReaderSize(r, connBuffer)
	for i, id := range []string{"a", "b", "c"} {
		var got response
		if _, err := readFrame(br, &got); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.ID != id || got.Seq != uint64(i+1) {
			t.Fatalf("frame %d decoded as %+v", i, got)
		}
	}
	if r.reads != 2 {
		t.Fatalf("three frames took %d socket reads, want 2", r.reads)
	}
}

// A response frame followed, in the same write, by the header of the next
// one, and then silence: the header's bytes sat in the reader's buffer, so
// the stall that follows is mid-frame and must poison the connection — not
// be taken for an idle frame boundary and re-armed, which would read the
// next bytes to arrive as a header.
func TestHeaderThenStallPoisons(t *testing.T) {
	stop := make(chan struct{})
	defer close(stop)
	addr := fakeServer(t, func(conn net.Conn) {
		defer conn.Close()
		var req request
		if _, err := readFrame(conn, &req); err != nil {
			return
		}
		out := mustFrame(t, response{OK: true, ID: "first", Seq: req.Seq})
		next := mustFrame(t, response{OK: true, ID: "never", Seq: req.Seq + 1})
		if _, err := conn.Write(append(out, next[:4]...)); err != nil {
			return
		}
		<-stop
	})
	m, err := dialMux(addr, ClientOptions{OpTimeout: 500 * time.Millisecond}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()
	resp, err := m.do(request{Op: "get", Collection: "c", ID: "x"})
	if err != nil || resp.ID != "first" {
		t.Fatalf("first exchange = %+v, %v", resp, err)
	}
	waitFor(t, 5*time.Second, func() bool { return !m.healthy() })
	if err := m.poisonErr(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("poisoned with %v, want the mid-frame read deadline", err)
	}
}

// An idle connection — nothing in flight, nothing buffered — outlives its
// read deadline many times over and still serves the next request.
func TestIdleStallWithEmptyBufferRearms(t *testing.T) {
	const opTimeout = 300 * time.Millisecond
	addr := fakeServer(t, func(conn net.Conn) {
		defer conn.Close()
		br := bufio.NewReader(conn)
		for {
			var req request
			if _, err := readFrame(br, &req); err != nil {
				return
			}
			if _, err := writeFrame(conn, response{OK: true, ID: req.ID, Seq: req.Seq}); err != nil {
				return
			}
		}
	})
	m, err := dialMux(addr, ClientOptions{OpTimeout: opTimeout}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()
	for _, id := range []string{"before", "after"} {
		resp, err := m.do(request{Op: "get", Collection: "c", ID: id})
		if err != nil || resp.ID != id {
			t.Fatalf("%s the idle stall: %+v, %v", id, resp, err)
		}
		time.Sleep(3 * opTimeout)
		if !m.healthy() {
			t.Fatalf("idle connection poisoned: %v", m.poisonErr())
		}
	}
}

// sinkConn swallows writes; it only has to stand under a faultnet.Conn
// while a schedule is probed.
type sinkConn struct{ net.Conn }

func (sinkConn) Write(b []byte) (int, error) { return len(b), nil }
func (sinkConn) Close() error                { return nil }

// tearingSeed finds a faultnet seed whose first write, at Rate 1, tears the
// frame (a prefix lands, then the link dies) rather than dropping it whole.
func tearingSeed(t *testing.T) uint64 {
	t.Helper()
	for seed := uint64(1); seed < 64; seed++ {
		var st faultnet.Stats
		fc := faultnet.WrapConn(sinkConn{}, faultnet.Config{Seed: seed, Rate: 1, Stats: &st})
		fc.Write([]byte("torn"))
		if st.PartialWrites.Load() == 1 {
			return seed
		}
	}
	t.Fatal("no seed tears the first write")
	return 0
}

// tearBatch passes the hello and the first request frame through,
// signalling held and then holding the request until release closes so
// frames queue up behind it, and sends the write after it — the coalesced
// batch — through faultnet, which tears it.
type tearBatch struct {
	net.Conn
	torn          *faultnet.Conn
	held, release chan struct{}
	writes        int
}

func (c *tearBatch) Write(b []byte) (int, error) {
	c.writes++ // only the mux's writer goroutine writes after the hello
	switch c.writes {
	case 1:
		return c.Conn.Write(b)
	case 2:
		c.held <- struct{}{}
		<-c.release
		return c.Conn.Write(b)
	default:
		return c.torn.Write(b)
	}
}

// gatedPuts holds every Put until open closes, so no request the link
// delivered can be answered before the test lets it.
type gatedPuts struct {
	Store
	open chan struct{}
}

func (g gatedPuts) Put(col, id string, doc Document) error {
	<-g.open
	return g.Store.Put(col, id, doc)
}

// A coalesced write that faultnet tears poisons the connection: every
// operation in flight on it — the batch, and the request written just
// before it — fails once and is retried once on a fresh connection, and
// every response still pairs with its request. The server answers nothing
// until the connection is dead, so no frame the tear let through can
// complete early.
func TestTornCoalescedWriteRetriesEachOnce(t *testing.T) {
	open, release := make(chan struct{}), make(chan struct{})
	openNow := sync.OnceFunc(func() { close(open) })
	releaseNow := sync.OnceFunc(func() { close(release) })
	srv, err := NewServer(gatedPuts{NewMemStore(), open}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	seed := tearingSeed(t)
	held := make(chan struct{}, 1)
	var dials atomic.Int32
	c, err := DialPool(srv.Addr(), 1, ClientOptions{
		RetryBackoff: time.Millisecond,
		Dialer: func(addr string) (net.Conn, error) {
			raw, err := net.Dial("tcp", addr)
			if err != nil || dials.Add(1) > 1 {
				return raw, err
			}
			torn := faultnet.WrapConn(raw, faultnet.Config{Seed: seed, Rate: 1})
			return &tearBatch{Conn: raw, torn: torn, held: held, release: release}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	defer func() { releaseNow(); openNow() }() // before Close, which waits for the held writer
	first, err := c.getMux(c.conns[0])
	if err != nil {
		t.Fatal(err)
	}

	const n = 8
	retries := cliRetries.Value()
	errs := make(chan error, n)
	put := func(i int) {
		key := fmt.Sprint("k", i)
		errs <- c.Put("torn", key, Document{"payload": key})
	}
	// The first request is held in its own write; the other n-1 queue
	// behind it and leave as one batch when it is released.
	go put(0)
	<-held
	for i := 1; i < n; i++ {
		go put(i)
	}
	waitFor(t, 5*time.Second, func() bool { return len(first.writeq) == n-1 })
	releaseNow()
	waitFor(t, 5*time.Second, func() bool { return !first.healthy() })
	openNow()
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := cliRetries.Value() - retries; got != n {
		t.Fatalf("%d retries for %d operations on a connection that tore a batch, want one each", got, n)
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprint("k", i)
		doc, err := c.Get("torn", key)
		if err != nil {
			t.Fatal(err)
		}
		if doc["payload"] != key {
			t.Fatalf("response mispaired: key %s got %v", key, doc["payload"])
		}
	}
	if dials.Load() != 2 {
		t.Fatalf("%d dials, want the torn connection and one redial", dials.Load())
	}
}
