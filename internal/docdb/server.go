package docdb

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/obs"
)

// Server-side wire metrics on the shared registry, the other half of the
// client counters: a /metrics scrape on a live mmserver shows ops and
// bytes moving under load.
var (
	srvOps      = obs.Default().Counter("docdb.server.ops")
	srvErrors   = obs.Default().Counter("docdb.server.op_errors")
	srvConnErrs = obs.Default().Counter("docdb.server.conn_errors")
	srvBytesIn  = obs.Default().Counter("docdb.server.bytes_in")
	srvBytesOut = obs.Default().Counter("docdb.server.bytes_out")
	srvConns    = obs.Default().Gauge("docdb.server.conns")
	srvInflight = obs.Default().Gauge("docdb.server.inflight")
)

// Per-connection discipline: generous enough that no legitimate client
// (the repo's OpTimeout is seconds) ever hits it, finite so a wedged peer
// cannot hold resources forever.
const (
	// idleTimeout bounds the wait for the next request frame on an open
	// connection. A client that stalls mid-request or walks away without
	// closing gets disconnected instead of pinning a handler goroutine and
	// a connection slot forever.
	idleTimeout = 2 * time.Minute
	// writeTimeout bounds flushing one response frame to a client that has
	// stopped reading.
	writeTimeout = 30 * time.Second
	// maxConns caps concurrently served connections. Accepts beyond the cap
	// wait in the listener backlog until a slot frees, keeping the
	// goroutine count bounded no matter how many clients dial.
	maxConns = 256
	// workersPerConn caps concurrently executing requests on one
	// connection. A pipelined client can have arbitrarily many requests in
	// flight; this bound keeps the server's goroutine count at maxConns ×
	// workersPerConn worst case. Requests beyond the bound wait their turn
	// in arrival order.
	workersPerConn = 32
)

// Server exposes a Store over TCP using the docdb wire protocol. It plays
// the role of the dedicated MongoDB machine in the paper's evaluation setup.
type Server struct {
	backend Store
	ln      net.Listener
	// sem holds one token per live connection; acquiring before Accept
	// bounds the handler goroutine count at maxConns.
	sem chan struct{}

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer creates a server backed by the given store, listening on addr
// (e.g. "127.0.0.1:0"). The server starts serving immediately.
func NewServer(backend Store, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewServerOn(backend, ln), nil
}

// NewServerOn creates a server backed by the given store serving on an
// existing listener. It lets callers interpose on the transport — the
// fault-injection harness wraps the listener so every accepted connection
// misbehaves on a deterministic schedule.
func NewServerOn(backend Store, ln net.Listener) *Server {
	s := &Server{
		backend: backend,
		ln:      ln,
		sem:     make(chan struct{}, maxConns),
		conns:   make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the address the server is listening on.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		// Take a connection slot before accepting: when maxConns handlers
		// are live, further dials queue in the listener backlog instead of
		// spawning goroutines. serveConn returns the slot at teardown.
		s.sem <- struct{}{}
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			//mmlint:ignore closecheck nothing was written on this just-accepted conn; best-effort teardown during shutdown
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn is the one connection loop: requests are dispatched to worker
// goroutines as they arrive and responses are written as they finish, in
// completion order, each echoing its request's correlation sequence number.
// The worker semaphore bounds per-connection concurrency; when it is full
// the read loop itself blocks on acquiring a slot, which stops draining the
// socket and pushes backpressure onto the client.
func (s *Server) serveConn(conn net.Conn) {
	srvConns.Add(1)
	defer s.wg.Done()
	defer func() {
		//mmlint:ignore closecheck every response is already error-checked in the serve loop; close is teardown
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		<-s.sem
		srvConns.Add(-1)
	}()
	var (
		wg  sync.WaitGroup
		wmu sync.Mutex // serializes response frames onto the shared conn
	)
	workers := make(chan struct{}, workersPerConn)
	defer wg.Wait()
	// One buffered reader for the connection's lifetime: a request frame —
	// and any frames the client coalesced behind it — comes off the socket
	// in one read.
	br := bufio.NewReaderSize(conn, connBuffer)
	for {
		// Arm the read deadline per frame, mirroring the client's OpTimeout
		// discipline (client.go): a peer that stalls mid-frame or idles
		// forever is cut off instead of pinning this goroutine.
		_ = conn.SetReadDeadline(time.Now().Add(idleTimeout))
		var req request
		n, err := readFrame(br, &req)
		srvBytesIn.Add(int64(n))
		if err != nil {
			s.logConnErr(err)
			return
		}
		workers <- struct{}{} // bounded: slot acquired before the goroutine exists
		wg.Add(1)
		go func(req request) {
			defer wg.Done()
			defer func() { <-workers }()
			srvInflight.Add(1)
			resp := s.handle(req)
			srvInflight.Add(-1)
			resp.Seq = req.Seq
			//mmlint:ignore lockheld responses from concurrent workers must not interleave on the shared conn; the write deadline armed under the lock bounds how long it is held
			wmu.Lock()
			ok := s.writeResp(conn, resp)
			wmu.Unlock()
			if !ok {
				// The response stream is broken; closing the conn kicks the
				// read loop out so the connection tears down as one unit.
				//mmlint:ignore closecheck the write already failed and poisoned the stream; closing is how the read loop learns
				conn.Close()
			}
		}(req)
	}
}

// writeResp flushes one response frame under the write deadline, reporting
// whether the connection is still usable.
func (s *Server) writeResp(conn net.Conn, resp response) bool {
	_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	n, err := writeFrame(conn, resp)
	srvBytesOut.Add(int64(n))
	return err == nil
}

// logConnErr records read-loop failures, staying quiet about the routine
// ways a connection ends (peer closed, idle timeout, local shutdown).
func (s *Server) logConnErr(err error) {
	if err != io.EOF && !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.ErrUnexpectedEOF) &&
		!errors.Is(err, os.ErrDeadlineExceeded) {
		srvConnErrs.Inc()
		obs.Warnf("docdb: connection error: %v", err)
	}
}

func (s *Server) handle(req request) response {
	srvOps.Inc()
	fail := func(err error) response { srvErrors.Inc(); return response{Error: err.Error()} }
	switch req.Op {
	case "put":
		if err := s.backend.Put(req.Collection, req.ID, req.Doc); err != nil {
			return fail(err)
		}
		return response{OK: true}
	case "get":
		doc, err := s.backend.Get(req.Collection, req.ID)
		if err != nil {
			return fail(err)
		}
		return response{OK: true, Doc: doc}
	case "chain":
		docs, err := s.backend.Chain(req.Collection, req.ID, req.Next, req.Stop)
		if err != nil {
			return fail(err)
		}
		return response{OK: true, Docs: docs}
	case "delete":
		if err := s.backend.Delete(req.Collection, req.ID); err != nil {
			return fail(err)
		}
		return response{OK: true}
	case "find":
		docs, err := s.backend.Find(req.Collection, req.Filter)
		if err != nil {
			return fail(err)
		}
		return response{OK: true, Docs: docs}
	case "ids":
		ids, err := s.backend.IDs(req.Collection)
		if err != nil {
			return fail(err)
		}
		return response{OK: true, IDs: ids}
	case "stats":
		st, err := s.backend.Stats()
		if err != nil {
			return fail(err)
		}
		return response{OK: true, Stats: &st}
	case "ping":
		return response{OK: true}
	case opHello:
		return response{OK: true, Version: protocolVersion}
	default:
		return response{Error: "docdb: unknown operation " + req.Op}
	}
}

// Shutdown stops accepting new connections and waits up to timeout for
// in-flight connections to drain on their own (a draining client sees its
// current request answered, then EOF on its next read once it closes).
// Connections still live when the timeout expires are force-closed, Close
// style. Shutdown returns nil when the drain completed in time and an
// error naming the connections it had to cut otherwise. The backend store
// is not closed.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	lnErr := s.ln.Close()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var forced int
	select {
	case <-done:
	case <-time.After(timeout):
		s.mu.Lock()
		forced = len(s.conns)
		for c := range s.conns {
			//mmlint:ignore closecheck drain timeout expired; cutting the conn is the point and the peer sees EOF
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
	if forced > 0 {
		return fmt.Errorf("docdb: drain timeout after %v: force-closed %d connections", timeout, forced)
	}
	return lnErr
}

// Close stops accepting connections, closes live connections, and waits for
// handlers to finish. The backend store is not closed.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		//mmlint:ignore closecheck shutdown path interrupting live conns; peers see io.EOF and there is no caller to inform
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}
