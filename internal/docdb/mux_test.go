package docdb

// Hostile-wire tests for the multiplexed protocol. The correlation-id
// discipline has one promise: no matter what the link does — delays,
// reorderings, torn frames, mid-read closes — a response is either paired
// with the exact request that asked for it or discarded. These tests drive
// the demultiplexer with misbehaving peers built from the package's own
// framing helpers.

import (
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultnet"
)

// fakeServer accepts exactly one connection, completes the hello, and
// then hands the connection to serve. It returns the listener address.
func fakeServer(t *testing.T, serve func(conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		var hello request
		if _, err := readFrame(conn, &hello); err != nil || hello.Op != opHello {
			conn.Close()
			return
		}
		if _, err := writeFrame(conn, response{OK: true, Version: protocolVersion, Seq: hello.Seq}); err != nil {
			conn.Close()
			return
		}
		serve(conn)
	}()
	return ln.Addr().String()
}

// TestMuxPipelinedResponsesNeverMispair floods one multiplexed connection
// from many goroutines against a server that completes requests out of
// order, and requires every Get to come back with its own document — once
// over a plain socket, and once over one whose writes are slow enough that
// the requests queued behind a write in flight leave coalesced, many
// frames to a socket write.
func TestMuxPipelinedResponsesNeverMispair(t *testing.T) {
	srv, err := NewServer(NewMemStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const workers, ops = 16, 25
	for _, coalesce := range []bool{false, true} {
		t.Run(fmt.Sprint("coalesce=", coalesce), func(t *testing.T) {
			var conn *writeLog
			c, err := DialOptions(srv.Addr(), ClientOptions{Dialer: func(addr string) (net.Conn, error) {
				raw, err := net.Dial("tcp", addr)
				if err != nil || !coalesce {
					return raw, err
				}
				conn = &writeLog{Conn: raw}
				return conn, nil
			}})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := pipelineMustPair(c, workers, ops); err != nil {
				t.Fatal(err)
			}
			frames := int64(1 + 2*workers*ops) // the hello, then a put and a get per op
			if coalesce && conn.writes.Load() >= frames {
				t.Fatalf("%d frames took %d socket writes; nothing coalesced", frames, conn.writes.Load())
			}
		})
	}
}

// writeLog counts the socket writes a connection makes, each taking a
// millisecond, so frames queue behind a write in flight and coalesce.
type writeLog struct {
	net.Conn
	writes atomic.Int64
}

func (c *writeLog) Write(b []byte) (int, error) {
	c.writes.Add(1)
	time.Sleep(time.Millisecond)
	return c.Conn.Write(b)
}

// pipelineMustPair runs workers goroutines of ops put-then-get pairs each
// on s and reports the first response that came back for another request.
func pipelineMustPair(s Store, workers, ops int) error {
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < ops; j++ {
				key := fmt.Sprintf("w%d-%d", w, j)
				if err := s.Put("mux", key, Document{"payload": key}); err != nil {
					errs[w] = err
					return
				}
				doc, err := s.Get("mux", key)
				if err != nil {
					errs[w] = err
					return
				}
				if doc["payload"] != key {
					errs[w] = fmt.Errorf("response mispaired: key %s got payload %v", key, doc["payload"])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// TestMuxPoisonFailsAllInflightWaiters parks many operations on a server
// that goes silent and then slams the connection shut. Every waiter must
// fail promptly — none may hang until its own timeout, and none may ever
// receive a response meant for another.
func TestMuxPoisonFailsAllInflightWaiters(t *testing.T) {
	const inflight = 8
	received := make(chan struct{}, inflight)
	addr := fakeServer(t, func(conn net.Conn) {
		// Swallow requests without answering, then kill the conn once all
		// waiters are provably parked.
		for i := 0; i < inflight; i++ {
			var req request
			if _, err := readFrame(conn, &req); err != nil {
				conn.Close()
				return
			}
			received <- struct{}{}
		}
		conn.Close()
	})

	m, err := dialMux(addr, ClientOptions{OpTimeout: time.Minute}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()

	errs := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		go func(i int) {
			_, err := m.do(request{Op: "get", Collection: "c", ID: fmt.Sprint(i)})
			errs <- err
		}(i)
	}
	for i := 0; i < inflight; i++ {
		<-received
	}

	// The conn dies under all in-flight waiters. With a one-minute
	// OpTimeout, only poisoning can unblock them within the deadline below.
	deadline := time.After(10 * time.Second)
	for i := 0; i < inflight; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("waiter on a dead connection reported success")
			}
			if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("waiter hit its own timeout instead of the poison: %v", err)
			}
		case <-deadline:
			t.Fatalf("%d of %d waiters still blocked after the connection died", inflight-i, inflight)
		}
	}
	if m.healthy() {
		t.Fatal("connection still advertises healthy after poisoning")
	}
	// Late registrations must be refused, not silently parked.
	if _, err := m.do(request{Op: "ping"}); err == nil {
		t.Fatal("operation on a poisoned connection succeeded")
	}
}

// TestMuxTornFrameKillsWaitersNotCorrectness: a frame that dies mid-body
// (header promises more bytes than ever arrive) must poison the stream and
// fail the in-flight operation — never let the framing slip so the next
// frame's bytes are parsed as this one's body.
func TestMuxTornFrameKillsWaitersNotCorrectness(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		var req request
		if _, err := readFrame(conn, &req); err != nil {
			conn.Close()
			return
		}
		// A 64-byte header with a 10-byte body, then a hard close.
		frame, err := marshalFrame(response{OK: true, Seq: req.Seq})
		if err != nil {
			conn.Close()
			return
		}
		frame[0] = 64 // inflate the little-endian length prefix
		conn.Write(frame[:4+10])
		conn.Close()
	})

	m, err := dialMux(addr, ClientOptions{OpTimeout: time.Minute}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()
	done := make(chan error, 1)
	go func() {
		_, err := m.do(request{Op: "get", Collection: "c", ID: "x"})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("operation across a torn frame succeeded")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter still blocked after torn frame")
	}
	if m.healthy() {
		t.Fatal("connection still healthy after a torn frame")
	}
}

// TestMuxLateResponseIsDiscarded lets an operation time out and then has
// the server answer it anyway. The late response must be counted and
// dropped — the connection stays healthy and keeps serving, and no later
// operation ever sees the stale payload.
func TestMuxLateResponseIsDiscarded(t *testing.T) {
	const opTimeout = 300 * time.Millisecond
	addr := fakeServer(t, func(conn net.Conn) {
		var first request
		if _, err := readFrame(conn, &first); err != nil {
			conn.Close()
			return
		}
		// Answer the first request well past the waiter's timeout, then
		// serve everything else promptly.
		time.Sleep(opTimeout + opTimeout/2)
		if _, err := writeFrame(conn, response{OK: true, ID: "stale", Seq: first.Seq}); err != nil {
			conn.Close()
			return
		}
		for {
			var req request
			if _, err := readFrame(conn, &req); err != nil {
				conn.Close()
				return
			}
			if _, err := writeFrame(conn, response{OK: true, ID: "fresh", Seq: req.Seq}); err != nil {
				conn.Close()
				return
			}
		}
	})

	m, err := dialMux(addr, ClientOptions{OpTimeout: opTimeout}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	defer m.close()

	orphansBefore := cliOrphans.Value()
	if _, err := m.do(request{Op: "get", Collection: "c", ID: "1"}); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("first op should time out, got %v", err)
	}
	// The stale response lands while nothing waits for its seq; the demux
	// reader must discard it and keep the stream usable.
	resp, err := m.do(request{Op: "get", Collection: "c", ID: "2"})
	if err != nil {
		t.Fatalf("connection unusable after a waiter timeout: %v", err)
	}
	if resp.ID != "fresh" {
		t.Fatalf("second op was paired with the stale response: %+v", resp)
	}
	if !m.healthy() {
		t.Fatal("waiter timeout must not poison the connection")
	}
	waitFor(t, 5*time.Second, func() bool { return cliOrphans.Value() > orphansBefore })
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDialFailsFastOnOldServer: a peer that refuses the hello, or answers
// it with another version, is a configuration error. The dial fails on the
// first connection with an error naming both versions — it is not retried
// and never yields a usable client.
func TestDialFailsFastOnOldServer(t *testing.T) {
	answers := map[string]response{
		"refuses hello":    {Error: "docdb: unknown operation hello"},
		"answers version1": {OK: true, Version: 1},
	}
	dials := map[string]func(addr string, opts ClientOptions) (Store, error){
		"DialOptions": func(addr string, opts ClientOptions) (Store, error) { return DialOptions(addr, opts) },
		"DialPool":    func(addr string, opts ClientOptions) (Store, error) { return DialPool(addr, 3, opts) },
	}
	for aname, answer := range answers {
		for dname, dial := range dials {
			t.Run(aname+"/"+dname, func(t *testing.T) {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer ln.Close()
				var accepted atomic.Int64
				go func() {
					for {
						conn, err := ln.Accept()
						if err != nil {
							return
						}
						accepted.Add(1)
						var hello request
						if _, err := readFrame(conn, &hello); err == nil {
							resp := answer
							resp.Seq = hello.Seq
							writeFrame(conn, resp)
						}
						conn.Close()
					}
				}()
				// A backoff this long would blow the deadline below if the
				// dial slept even once.
				opts := ClientOptions{RetryBackoff: time.Minute, MaxBackoff: time.Minute}
				start := time.Now()
				st, err := dial(ln.Addr().String(), opts)
				if err == nil {
					st.Close()
					t.Fatal("dial to a peer that does not speak this protocol version returned a client")
				}
				if time.Since(start) > 10*time.Second {
					t.Fatalf("dial took %v: a version mismatch must not be retried", time.Since(start))
				}
				for _, want := range []string{fmt.Sprintf("version %d", answer.Version), fmt.Sprintf("version %d", protocolVersion)} {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("error %q does not name %q", err, want)
					}
				}
				if errors.Is(err, errHandshake) {
					t.Errorf("version mismatch classed as a link fault: %v", err)
				}
				if n := accepted.Load(); n != 1 {
					t.Errorf("dial opened %d connections, want exactly 1", n)
				}
			})
		}
	}
}

// TestSerialPeerWithoutHelloIsServed: the server runs one loop for every
// peer. A raw connection that never says hello and strictly alternates
// request and response is answered in order with its Seq (zero) echoed, and
// a hello in mid-stream is an ordinary operation that leaves the stream
// usable.
func TestSerialPeerWithoutHelloIsServed(t *testing.T) {
	srv, err := NewServer(NewMemStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	exchange := func(req request) response {
		t.Helper()
		if _, err := writeFrame(conn, req); err != nil {
			t.Fatal(err)
		}
		var resp response
		if _, err := readFrame(conn, &resp); err != nil {
			t.Fatalf("%s: %v", req.Op, err)
		}
		if !resp.OK || resp.Seq != req.Seq {
			t.Fatalf("%s: response %+v", req.Op, resp)
		}
		return resp
	}
	exchange(request{Op: "put", Collection: "c", ID: "k", Doc: Document{"v": "1"}})
	if got := exchange(request{Op: "get", Collection: "c", ID: "k"}); got.Doc["v"] != "1" {
		t.Fatalf("get returned %+v", got.Doc)
	}
	exchange(request{Op: "ping"})
	if got := exchange(request{Op: opHello, Version: protocolVersion, Seq: 7}); got.Version != protocolVersion {
		t.Fatalf("mid-stream hello answered version %d, want %d", got.Version, protocolVersion)
	}
	if got := exchange(request{Op: "ids", Collection: "c"}); len(got.IDs) != 1 || got.IDs[0] != "k" {
		t.Fatalf("stream unusable after a mid-stream hello: %+v", got)
	}
}

// TestPoolSurvivesFlakyNetwork drives a pool over a deterministic faulty
// link: idempotent operations must retry onto fresh connections until they
// succeed, and every response must still pair with its own request.
func TestPoolSurvivesFlakyNetwork(t *testing.T) {
	srv, err := NewServer(NewMemStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	p, err := DialPool(srv.Addr(), 2, ClientOptions{
		OpTimeout:    2 * time.Second,
		MaxRetries:   10,
		RetryBackoff: time.Millisecond,
		MaxBackoff:   20 * time.Millisecond,
		Dialer:       faultnet.Dialer(faultnet.Config{Seed: 7, Rate: 0.05, Delay: time.Millisecond}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	const workers, ops = 8, 12
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < ops; j++ {
				key := fmt.Sprintf("w%d-%d", w, j)
				if err := p.Put("pool", key, Document{"payload": key}); err != nil {
					errs[w] = err
					return
				}
				doc, err := p.Get("pool", key)
				if err != nil {
					errs[w] = err
					return
				}
				if doc["payload"] != key {
					errs[w] = fmt.Errorf("pooled response mispaired: key %s got %v", key, doc["payload"])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Every document must have survived exactly once.
	ids, err := p.IDs("pool")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != workers*ops {
		t.Fatalf("store holds %d documents, want %d", len(ids), workers*ops)
	}
}

// TestPoolRoutesAroundPoisonedConn poisons one pooled connection and
// requires traffic to keep flowing: the poisoned client redials on use and
// the pool's health-aware checkout steers around it in the meantime.
func TestPoolRoutesAroundPoisonedConn(t *testing.T) {
	srv, err := NewServer(NewMemStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p, err := DialPool(srv.Addr(), 2, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if err := p.Put("k", "before", Document{"v": 1}); err != nil {
		t.Fatal(err)
	}
	victim := p.clients[0]
	m, err := victim.getMux()
	if err != nil {
		t.Fatal(err)
	}
	victim.drop(m, errors.New("injected failure"))
	if victim.Healthy() {
		t.Fatal("client should advertise unhealthy right after losing its conn")
	}

	// Every subsequent operation must succeed regardless of which client
	// the round-robin lands on.
	for i := 0; i < 10; i++ {
		key := fmt.Sprint("after-", i)
		if err := p.Put("k", key, Document{"v": i}); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Get("k", key); err != nil {
			t.Fatal(err)
		}
	}
	// The victim heals by redialing on use once the cooldown passes.
	waitFor(t, 5*time.Second, func() bool { return victim.Healthy() })
	if err := victim.Ping(); err != nil {
		t.Fatalf("victim did not heal: %v", err)
	}
}
