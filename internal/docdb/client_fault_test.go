package docdb

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultnet"
)

// oldRoundTrip replicates the pre-fix client's round trip: write a frame,
// read a frame, and on error leave the connection untouched for the next
// caller. It exists to demonstrate the desync bug class the rewritten
// client eliminates.
func oldRoundTrip(conn net.Conn, req request) (response, error) {
	if _, err := writeFrame(conn, req); err != nil {
		return response{}, err
	}
	var resp response
	if _, err := readFrame(conn, &resp); err != nil {
		return response{}, err
	}
	return resp, nil
}

// TestOldClientMispairsResponsesAfterFrameError demonstrates the bug this
// PR fixes: a client that keeps its connection after a failed read pairs
// the NEXT request with the PREVIOUS request's late response and silently
// returns the wrong document — no checksum fires, the exactness guarantee
// just breaks. The new client poisons the connection instead (see
// TestClientPoisonsConnectionAfterFrameError).
func TestOldClientMispairsResponsesAfterFrameError(t *testing.T) {
	backend := NewMemStore()
	srv, err := NewServer(backend, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := backend.Put("models", "doc1", Document{"name": "resnet18"}); err != nil {
		t.Fatal(err)
	}
	if err := backend.Put("models", "doc2", Document{"name": "mobilenetv2"}); err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Request doc1, then hit a transient fault while reading the response
	// (modeled by an already-expired read deadline). The old client
	// returned the error but kept the connection; doc1's response is still
	// in flight.
	sent := srvBytesOut.Value()
	if _, err := writeFrame(conn, request{Op: "get", Collection: "models", ID: "doc1"}); err != nil {
		t.Fatal(err)
	}
	// The server answers in completion order, so the demonstration waits
	// until doc1's response is on the wire before asking for doc2.
	waitFor(t, 5*time.Second, func() bool { return srvBytesOut.Value() > sent })
	if err := conn.SetReadDeadline(time.Now().Add(-time.Second)); err != nil {
		t.Fatal(err)
	}
	var resp response
	if _, err := readFrame(conn, &resp); err == nil {
		t.Fatal("expected the simulated transient read failure")
	}
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}

	// The next request on the same connection asks for doc2 — and receives
	// doc1's stale response. This is the silent wrong-answer desync.
	got, err := oldRoundTrip(conn, request{Op: "get", Collection: "models", ID: "doc2"})
	if err != nil {
		t.Fatalf("old client round trip: %v", err)
	}
	if got.Doc["name"] != "resnet18" {
		t.Fatalf("expected the demonstration to surface doc1's mispaired response, got %v", got.Doc)
	}
}

// failReads wraps a conn so that, after skip successful reads, the next n
// reads fail (the write has already delivered the request — only the
// response is lost, the worst case for non-idempotent operations). The skip
// lets the protocol handshake through so the fault lands on a live
// operation's response, mid-session.
type failReads struct {
	net.Conn
	skip      *atomic.Int64
	remaining *atomic.Int64
}

func (c failReads) Read(b []byte) (int, error) {
	if c.skip.Add(-1) >= 0 {
		return c.Conn.Read(b)
	}
	if c.remaining.Add(-1) >= 0 {
		return 0, errors.New("injected: response lost")
	}
	return c.Conn.Read(b)
}

// lossyDialer dials real connections that read cleanly skipFirst times and
// then fail the next failNext reads (counted across all conns), and counts
// dials. The v2 hello response costs two reads (header + body), so
// skipFirst = 2 places the first fault on the first operation's response.
func lossyDialer(skipFirst, failNext int64) (func(addr string) (net.Conn, error), *atomic.Int64) {
	var skip, fails atomic.Int64
	skip.Store(skipFirst)
	fails.Store(failNext)
	var dials atomic.Int64
	return func(addr string) (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		dials.Add(1)
		return failReads{Conn: c, skip: &skip, remaining: &fails}, nil
	}, &dials
}

// TestClientPoisonsConnectionAfterFrameError is the new-client half of the
// desync demonstration: the same lost-response fault makes the client close
// the poisoned connection, reconnect, and return the RIGHT document.
func TestClientPoisonsConnectionAfterFrameError(t *testing.T) {
	backend := NewMemStore()
	srv, err := NewServer(backend, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := backend.Put("models", "doc1", Document{"name": "resnet18"}); err != nil {
		t.Fatal(err)
	}
	if err := backend.Put("models", "doc2", Document{"name": "mobilenetv2"}); err != nil {
		t.Fatal(err)
	}

	dialer, dials := lossyDialer(2, 1)
	c, err := DialOptions(srv.Addr(), ClientOptions{
		Dialer:       dialer,
		RetryBackoff: time.Millisecond,
		MaxBackoff:   5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// First post-handshake read fails: request doc1, lose the response. The
	// retry must come back on a FRESH connection with the correct pairing.
	doc, err := c.Get("models", "doc1")
	if err != nil {
		t.Fatalf("get through fault: %v", err)
	}
	if doc["name"] != "resnet18" {
		t.Fatalf("doc1 = %v", doc)
	}
	if got := dials.Load(); got != 2 {
		t.Fatalf("dials = %d, want 2 (initial + post-poison reconnect)", got)
	}
	// And the next request must not see any stale bytes.
	doc, err = c.Get("models", "doc2")
	if err != nil {
		t.Fatal(err)
	}
	if doc["name"] != "mobilenetv2" {
		t.Fatalf("doc2 mispaired after recovery: %v", doc)
	}
	if got := dials.Load(); got != 2 {
		t.Fatalf("healthy request redialed: %d dials", got)
	}
}

// TestInsertRetryDoesNotDuplicate loses the response to an insert — the
// server has already created the document — and requires the retried
// insert to be deduped server-side: one document, and the client learns
// its identifier.
func TestInsertRetryDoesNotDuplicate(t *testing.T) {
	backend := NewMemStore()
	srv, err := NewServer(backend, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	dialer, _ := lossyDialer(2, 1)
	c, err := DialOptions(srv.Addr(), ClientOptions{
		Dialer:       dialer,
		RetryBackoff: time.Millisecond,
		MaxBackoff:   5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	id, err := c.Insert("models", Document{"name": "resnet18"})
	if err != nil {
		t.Fatalf("insert through fault: %v", err)
	}
	ids, err := backend.IDs("models")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 {
		t.Fatalf("retried insert duplicated the document: %v", ids)
	}
	if ids[0] != id {
		t.Fatalf("client learned id %s but server stored %s", id, ids[0])
	}
}

// TestClientFailsLoudlyWhenServerUnreachable: with the server gone, a
// request must fail with a clear error after its retry budget — not hang,
// not lie.
func TestClientFailsLoudlyWhenServerUnreachable(t *testing.T) {
	srv, err := NewServer(NewMemStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	c, err := DialOptions(addr, ClientOptions{
		OpTimeout:    200 * time.Millisecond,
		MaxRetries:   2,
		RetryBackoff: time.Millisecond,
		MaxBackoff:   2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { _, err := c.Get("models", "x"); done <- err }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected a loud failure with the server gone")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client hung instead of failing")
	}
}

// TestClientSurvivesFlakyNetwork hammers a client over a fault-injecting
// link: every operation must still succeed (via retries) and the store
// must end exactly consistent — no lost and no duplicated documents.
func TestClientSurvivesFlakyNetwork(t *testing.T) {
	backend := NewMemStore()
	srv, err := NewServer(backend, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var stats faultnet.Stats
	c, err := DialOptions(srv.Addr(), ClientOptions{
		Dialer:       faultnet.Dialer(faultnet.Config{Seed: 7, Rate: 0.2, Delay: 100 * time.Microsecond, Stats: &stats}),
		OpTimeout:    2 * time.Second,
		MaxRetries:   12,
		RetryBackoff: time.Millisecond,
		MaxBackoff:   10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const docs = 40
	var inserted []string
	for i := 0; i < docs; i++ {
		id, err := c.Insert("models", Document{"seq": i})
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		inserted = append(inserted, id)
		got, err := c.Get("models", id)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if fmt.Sprint(got["seq"]) != fmt.Sprint(i) {
			t.Fatalf("desync: doc %d returned %v", i, got)
		}
	}
	ids, err := backend.IDs("models")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != docs {
		t.Fatalf("store holds %d documents, want %d (lost or duplicated)", len(ids), docs)
	}
	for _, id := range inserted {
		if _, err := backend.Get("models", id); err != nil {
			t.Fatalf("inserted id %s missing from store: %v", id, err)
		}
	}
	if stats.Total() == 0 {
		t.Fatal("fault injection never engaged; the test proved nothing")
	}
}
