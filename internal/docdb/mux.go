package docdb

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Multiplexed connection. One muxConn carries many in-flight
// operations: requesting goroutines marshal their frame, register a waiter
// under the request's correlation sequence number, and hand the frame to a
// single writer goroutine; a single demux reader pairs each response with
// its waiter by the echoed sequence number, so responses are free to arrive
// out of order: under a high-latency link, throughput is bounded by the
// pipe, not by latency × operation count.
//
// Failure discipline. Three distinct failures are kept apart:
//
//   - A waiter timeout (OpTimeout with no response for that seq) fails only
//     that operation. The waiter deregisters itself; if the response shows
//     up later the demux reader finds no waiter for its seq and discards it
//     — the correlation id is exactly what makes a late response harmless
//     instead of a desync that pairs it with the next request.
//   - A stream error (frame parse error, unexpected EOF, a read deadline
//     expiring mid-frame, any write error) poisons the connection: the
//     sticky error is recorded, the conn is closed, and every in-flight
//     waiter fails immediately. Nothing is ever read off a poisoned stream
//     again, so a torn frame cannot shift the framing under live requests.
//   - A clean idle timeout (read deadline expiring at a frame boundary with
//     zero bytes of the next frame consumed, buffered ones included) just
//     re-arms the deadline. Idle pooled connections stay open without
//     traffic.

var (
	cliInflight = obs.Default().Gauge("docdb.client.inflight")
	cliOrphans  = obs.Default().Counter("docdb.client.orphan_responses")
)

// errMuxClosed is the poison reason for a deliberate local Close.
var errMuxClosed = errors.New("docdb: client closed")

// errHandshake marks a dial that reached the server but lost the hello
// exchange to a link fault. The distinction matters to DialPool: an
// unreachable address is a configuration error worth failing fast on, while
// a flaky link is exactly what the client's per-operation retries exist to
// absorb.
var errHandshake = errors.New("docdb: protocol handshake failed")

// muxConn is one connection that passed the version check; its writer and
// reader goroutines run until it is poisoned.
type muxConn struct {
	conn      net.Conn
	opTimeout time.Duration

	seq  atomic.Uint64
	done chan struct{} // closed when poisoned
	// wg tracks the writer and demux reader goroutines; close waits for
	// both so a deliberate local close never strands a loop mid-frame.
	wg sync.WaitGroup

	mu      sync.Mutex
	err     error // sticky poison reason; set exactly once, before done closes
	pending map[uint64]chan response

	// writeq hands finished frames to the writer goroutine. Its capacity
	// only smooths bursts; backpressure is the requester's own timeout.
	writeq chan []byte
}

// dialMux establishes a connection and checks the peer's protocol version
// with an in-band hello. A peer that refuses the hello or answers any other
// version fails the dial the way an unreachable address does: it is a
// configuration error, and no retry will change the answer. A frame-level
// failure during the exchange fails the dial with errHandshake.
func dialMux(addr string, opts ClientOptions) (*muxConn, error) {
	conn, err := opts.Dialer(addr)
	if err != nil {
		return nil, fmt.Errorf("docdb: dialing %s: %w", addr, err)
	}
	m := &muxConn{
		conn:      conn,
		opTimeout: opts.OpTimeout,
		done:      make(chan struct{}),
		pending:   make(map[uint64]chan response),
		writeq:    make(chan []byte, 64),
	}
	if err := conn.SetDeadline(time.Now().Add(opts.OpTimeout)); err != nil {
		//mmlint:ignore closecheck the handshake failed; the conn never carried a request and the deadline error is what the caller reports
		conn.Close()
		return nil, fmt.Errorf("docdb: arming deadline: %w", err)
	}
	// The hello is read unbuffered, before the demux reader's buffer
	// exists: nothing follows the answer until the next request, so no
	// byte can be left behind in a buffer this exchange throws away.
	n, err := writeFrame(conn, request{Op: opHello, Version: protocolVersion, Seq: m.seq.Add(1)})
	cliBytesOut.Add(int64(n))
	var resp response
	if err == nil {
		n, err = readFrame(conn, &resp)
		cliBytesIn.Add(int64(n))
	}
	if err != nil {
		err = fmt.Errorf("%w: %s: %w", errHandshake, addr, err)
	} else if !resp.OK || resp.Version != protocolVersion {
		err = fmt.Errorf("docdb: %s answered the hello with protocol version %d (%q); this client speaks version %d", addr, resp.Version, resp.Error, protocolVersion)
	}
	if err != nil {
		//mmlint:ignore closecheck the hello failed; the conn never carried a request and the frame or version error is what the caller reports
		conn.Close()
		return nil, err
	}
	// From here on the writer and reader own the conn's deadlines, armed
	// per frame in their loops.
	m.wg.Add(2)
	go m.writeLoop()
	go m.readLoop()
	return m, nil
}

// healthy reports whether the connection can still carry requests.
func (m *muxConn) healthy() bool {
	select {
	case <-m.done:
		return false
	default:
		return true
	}
}

// poisonErr returns the sticky poison reason (nil while healthy).
func (m *muxConn) poisonErr() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// poison records the first fatal error, closes the connection, and fails
// every in-flight waiter at once: closing done wakes every do() blocked on
// it, and the cleared pending map guarantees no later frame can reach a
// waiter that already gave up.
func (m *muxConn) poison(reason error) {
	m.mu.Lock()
	if m.err != nil {
		m.mu.Unlock()
		return
	}
	m.err = reason
	m.pending = make(map[uint64]chan response)
	close(m.done)
	m.mu.Unlock()
	cliPoisoned.Inc()
	//mmlint:ignore closecheck the connection is being discarded after a fatal error; that error, not the close result, is what waiters report
	m.conn.Close()
}

// close poisons the connection with a deliberate local-close reason and
// waits for the writer and reader loops to exit. Poisoning closed the
// conn, so both loops unblock promptly; close must never be called from
// inside either loop (poison, which the loops do call, does not wait).
func (m *muxConn) close() {
	m.poison(errMuxClosed)
	m.wg.Wait()
}

// forget removes a waiter whose operation gave up (timeout or local close),
// so a late response for its seq is discarded instead of delivered.
func (m *muxConn) forget(seq uint64) {
	m.mu.Lock()
	delete(m.pending, seq)
	m.mu.Unlock()
}

// register installs a waiter for seq. It fails if the conn is poisoned.
func (m *muxConn) register(seq uint64, ch chan response) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return m.err
	}
	m.pending[seq] = ch
	return nil
}

// deliver routes one response to its waiter. A response whose seq has no
// waiter belonged to an operation that already timed out; it is counted and
// dropped — never handed to anyone else.
func (m *muxConn) deliver(resp response) {
	m.mu.Lock()
	ch, ok := m.pending[resp.Seq]
	if ok {
		delete(m.pending, resp.Seq)
	}
	m.mu.Unlock()
	if !ok {
		cliOrphans.Inc()
		return
	}
	ch <- resp // buffered; the demux reader never blocks on a waiter
}

// do performs one operation: register a waiter, hand the frame to the
// writer, wait for the demux reader to deliver the response.
func (m *muxConn) do(req request) (response, error) {
	seq := m.seq.Add(1)
	req.Seq = seq
	frame, err := marshalFrame(req)
	if err != nil {
		return response{}, err
	}
	ch := make(chan response, 1)
	if err := m.register(seq, ch); err != nil {
		return response{}, err
	}
	timer := time.NewTimer(m.opTimeout)
	defer timer.Stop()
	select {
	case m.writeq <- frame:
	case <-m.done:
		m.forget(seq)
		return response{}, m.poisonErr()
	case <-timer.C:
		m.forget(seq)
		return response{}, fmt.Errorf("docdb: %s: enqueueing request: %w", req.Op, os.ErrDeadlineExceeded)
	}
	select {
	case resp := <-ch:
		return resp, nil
	case <-m.done:
		// Poisoning killed every in-flight waiter, this one included. The
		// pending map was already cleared, so no frame can race us here.
		return response{}, m.poisonErr()
	case <-timer.C:
		m.forget(seq)
		return response{}, fmt.Errorf("docdb: %s: awaiting response: %w", req.Op, os.ErrDeadlineExceeded)
	}
}

// writeLoop is the single writer: it owns outbound framing, arming the
// write deadline per Write. Every frame already queued behind the one it
// dequeued rides in the same Write, up to maxBatch bytes, so requests that
// overlap on the conn cost the link one crossing between them. Any write
// failure poisons the connection — a partially written batch has already
// desynchronized the stream — and the poison fails every waiter whose frame
// was in it, exactly once.
func (m *muxConn) writeLoop() {
	defer m.wg.Done()
	var frames [][]byte
	for {
		select {
		case frame := <-m.writeq:
			frames = append(frames[:0], frame)
		batch:
			for size := len(frame); size < maxBatch; {
				select {
				case f := <-m.writeq:
					frames = append(frames, f)
					size += len(f)
				default:
					break batch
				}
			}
			out := frame
			if len(frames) > 1 {
				out = bytes.Join(frames, nil)
			}
			clear(frames) // the next batch must not pin this one's frames
			if err := m.conn.SetWriteDeadline(time.Now().Add(m.opTimeout)); err != nil {
				m.poison(fmt.Errorf("docdb: arming write deadline: %w", err))
				return
			}
			n, err := m.conn.Write(out)
			cliBytesOut.Add(int64(n))
			if err != nil {
				m.poison(fmt.Errorf("docdb: sending request: %w", err))
				return
			}
		case <-m.done:
			return
		}
	}
}

// readLoop is the demux reader: it owns inbound framing, reading through
// one buffered reader so a frame costs one socket read, and arming the read
// deadline per frame. A deadline that expires with zero bytes of the next
// frame consumed is an idle connection at a frame boundary — safe to
// re-arm, because waiter timeouts are enforced by each waiter's own timer.
// The count is taken above the buffer: bytes of the next frame that came
// in with the previous one are consumed before the reader blocks, so a
// stall after them counts as mid-frame, never as idle. A deadline that
// expires mid-frame means the stream stalled inside a message and can never
// be trusted again; like every other read error it poisons the connection.
func (m *muxConn) readLoop() {
	defer m.wg.Done()
	cr := &countingReader{r: bufio.NewReaderSize(m.conn, connBuffer)}
	for {
		if err := m.conn.SetReadDeadline(time.Now().Add(m.opTimeout)); err != nil {
			m.poison(fmt.Errorf("docdb: arming read deadline: %w", err))
			return
		}
		cr.n = 0
		var resp response
		n, err := readFrame(cr, &resp)
		cliBytesIn.Add(int64(n))
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) && cr.n == 0 {
				continue
			}
			m.poison(fmt.Errorf("docdb: reading response: %w", err))
			return
		}
		m.deliver(resp)
	}
}
