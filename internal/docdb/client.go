package docdb

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Client-side wire metrics on the shared registry. One set for the whole
// process: the evaluation flows run many clients, and the question a
// snapshot answers is "what did the metadata tier cost this run".
var (
	cliOps      = obs.Default().Counter("docdb.client.ops")
	cliErrors   = obs.Default().Counter("docdb.client.errors")
	cliRetries  = obs.Default().Counter("docdb.client.retries")
	cliPoisoned = obs.Default().Counter("docdb.client.poisoned_conns")
	cliDeadline = obs.Default().Counter("docdb.client.deadline_hits")
	cliBytesOut = obs.Default().Counter("docdb.client.bytes_out")
	cliBytesIn  = obs.Default().Counter("docdb.client.bytes_in")
	cliLatency  = obs.Default().Histogram("docdb.client.op_us")
)

// healthCooldown is how long a Client advertises itself unhealthy after a
// connection failure. ClientPool uses it to steer checkouts away from a
// client that just lost its conn, without ever writing the client off: once
// the cooldown passes it is eligible again and heals by redialing on use.
const healthCooldown = 500 * time.Millisecond

// ClientOptions tune the network client's fault-tolerance behavior. The
// zero value selects the defaults documented on each field.
type ClientOptions struct {
	// OpTimeout is the deadline applied to each request/response round
	// trip on the wire (default 10s). A stalled link fails the attempt
	// instead of hanging the caller forever.
	OpTimeout time.Duration
	// MaxRetries is how many additional attempts follow a failed attempt
	// of a retryable operation (default 4). Every retry reconnects: a
	// connection that saw a frame error is poisoned and never reused.
	MaxRetries int
	// RetryBackoff is the delay before the first retry (default 20ms);
	// subsequent retries double it up to MaxBackoff.
	RetryBackoff time.Duration
	// MaxBackoff caps the exponential backoff (default 500ms).
	MaxBackoff time.Duration
	// Dialer overrides how connections are established (default
	// net.Dial("tcp", addr)). Tests use it to inject faulty links.
	Dialer func(addr string) (net.Conn, error)
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.OpTimeout == 0 {
		o.OpTimeout = 10 * time.Second
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 4
	}
	if o.RetryBackoff == 0 {
		o.RetryBackoff = 20 * time.Millisecond
	}
	if o.MaxBackoff == 0 {
		o.MaxBackoff = 500 * time.Millisecond
	}
	if o.Dialer == nil {
		o.Dialer = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	return o
}

// Client is a Store implementation that talks to a Server over TCP. One
// connection is shared by all callers and multiplexed — every goroutine's
// request is tagged with a correlation sequence number, a writer goroutine
// pipelines the frames, and a demux reader pairs each response with its
// waiter, so many operations overlap on the wire instead of queueing behind
// one another.
//
// The client assumes the link is allowed to fail. Any frame error poisons
// the current connection — it is closed immediately, every in-flight waiter
// fails at once, and the conn is never reused, so a late response to a
// failed request can never be paired with another request. Retryable
// operations then redial and retry with exponential backoff:
// get/chain/find/ids/stats/ping/put/delete are idempotent and retry freely;
// insert carries a client-generated request identifier that the server
// dedupes, so a retried insert returns the original document identifier
// instead of creating a duplicate.
type Client struct {
	addr string
	opts ClientOptions

	mu      sync.Mutex
	mux     *muxConn
	dialing *dialFuture // non-nil while a redial is in flight
	closed  bool

	// failedAt is the wall time (unix nanos) of the last connection
	// failure, zeroed by the next successful operation; Healthy derives
	// the pool's cooldown from it.
	failedAt atomic.Int64
}

// dialFuture lets concurrent operations share one redial instead of
// stampeding the server with a dial per blocked caller.
type dialFuture struct {
	done chan struct{}
	m    *muxConn
	err  error
}

// Dial connects to a docdb server at addr with default options.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, ClientOptions{})
}

// DialOptions connects to a docdb server at addr with explicit
// fault-tolerance options. The connection and the protocol version check
// happen eagerly so an unreachable server, or one that speaks another
// version, fails the dial, not the first operation. A server that was
// reached but whose handshake frames were lost to a link fault does NOT
// fail the dial: that is the flaky-link case the client's retries exist
// for, so the client is returned and heals by redialing on first use.
func DialOptions(addr string, opts ClientOptions) (*Client, error) {
	c := &Client{addr: addr, opts: opts.withDefaults()}
	if _, err := c.getMux(); err != nil && !errors.Is(err, errHandshake) {
		return nil, err
	}
	return c, nil
}

var _ Store = (*Client)(nil)

// retryable reports whether req may be re-sent after a frame error without
// risking a duplicated effect. Reads and full-document overwrites are
// idempotent by construction; an insert is safe only when it carries a
// request identifier the server can dedupe on.
func retryable(req request) bool {
	if req.Op == "insert" {
		return req.ReqID != ""
	}
	return true
}

// getMux returns the live connection, sharing one redial among all callers
// that find it missing. The dial itself runs outside c.mu so operations on
// a healthy Client never serialize behind a reconnect.
func (c *Client) getMux() (*muxConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errMuxClosed
	}
	if m := c.mux; m != nil && m.healthy() {
		c.mu.Unlock()
		return m, nil
	}
	f := c.dialing
	if f == nil {
		f = &dialFuture{done: make(chan struct{})}
		c.dialing = f
		go c.runDial(f)
	}
	c.mu.Unlock()
	<-f.done
	return f.m, f.err
}

// runDial performs the shared redial and publishes its outcome. A dial
// that loses the race with Close is discarded — outside c.mu, because
// closing a mux waits for its loops to exit.
func (c *Client) runDial(f *dialFuture) {
	m, err := dialMux(c.addr, c.opts)
	c.mu.Lock()
	stale := c.closed && m != nil
	if stale {
		c.mux = nil
	} else {
		c.mux = m
	}
	c.dialing = nil
	c.mu.Unlock()
	if stale {
		m.close()
		m, err = nil, errMuxClosed
	}
	f.m, f.err = m, err
	close(f.done)
}

// drop retires a connection after a failed exchange: poison kills its
// in-flight waiters (their own roundTrips retry on a fresh conn) and the
// client forgets it so the next attempt redials.
func (c *Client) drop(m *muxConn, reason error) {
	m.poison(reason)
	c.failedAt.Store(time.Now().UnixNano())
	c.mu.Lock()
	if c.mux == m {
		c.mux = nil
	}
	c.mu.Unlock()
}

// Healthy reports whether the client looks able to serve an operation
// without first recovering from a recent connection failure. It is a hint
// for pool checkout, not a guarantee — an unhealthy client still works, it
// just redials first.
func (c *Client) Healthy() bool {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return false
	}
	at := c.failedAt.Load()
	return at == 0 || time.Since(time.Unix(0, at)) > healthCooldown
}

func (c *Client) roundTrip(req request) (response, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return response{}, errMuxClosed
	}
	c.mu.Unlock()
	cliOps.Inc()
	cliInflight.Add(1)
	defer cliInflight.Add(-1)
	t0 := time.Now()
	defer func() { cliLatency.ObserveDuration(time.Since(t0)) }()
	var lastErr error
	for att := 0; att <= c.opts.MaxRetries; att++ {
		if att > 0 {
			cliRetries.Inc()
			backoff := c.opts.MaxBackoff
			if shift := att - 1; shift < 16 && c.opts.RetryBackoff<<shift < backoff {
				backoff = c.opts.RetryBackoff << shift
			}
			time.Sleep(backoff)
		}
		m, err := c.getMux()
		if err != nil {
			lastErr = err
			if errors.Is(err, errMuxClosed) || !retryable(req) {
				break
			}
			continue
		}
		resp, err := m.do(req)
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				cliDeadline.Inc()
			}
			// A failed exchange retires the whole conn: a link that ate
			// one response is not trusted with the others, and a
			// zombie conn must not stay checked in. Concurrent waiters fail
			// fast and retry here on the fresh conn.
			c.drop(m, err)
			lastErr = err
			if !retryable(req) {
				break
			}
			continue
		}
		// The exchange completed; an application-level failure travels in
		// the response and must not be retried — the server already gave
		// its answer.
		if !resp.OK {
			if resp.Error == ErrNotFound.Error() {
				return response{}, ErrNotFound
			}
			return response{}, errors.New(resp.Error)
		}
		c.failedAt.Store(0)
		return resp, nil
	}
	cliErrors.Inc()
	return response{}, fmt.Errorf("docdb: %s failed after %d attempts: %w", req.Op, c.opts.MaxRetries+1, lastErr)
}

// Insert implements Store. Every insert carries a fresh request identifier
// so the server can dedupe retries of the same logical insert.
func (c *Client) Insert(collection string, doc Document) (string, error) {
	resp, err := c.roundTrip(request{Op: "insert", Collection: collection, Doc: doc, ReqID: NewID()})
	if err != nil {
		return "", err
	}
	return resp.ID, nil
}

// Put implements Store.
func (c *Client) Put(collection, id string, doc Document) error {
	_, err := c.roundTrip(request{Op: "put", Collection: collection, ID: id, Doc: doc})
	return err
}

// Get implements Store.
func (c *Client) Get(collection, id string) (Document, error) {
	resp, err := c.roundTrip(request{Op: "get", Collection: collection, ID: id})
	if err != nil {
		return nil, err
	}
	return resp.Doc, nil
}

// Chain implements Store: the server walks the chain, so it costs one
// round trip however many documents it returns.
func (c *Client) Chain(collection, id, next, stop string) ([]Document, error) {
	resp, err := c.roundTrip(request{Op: "chain", Collection: collection, ID: id, Next: next, Stop: stop})
	if err != nil {
		return nil, err
	}
	return resp.Docs, nil
}

// NewIDNear implements Store: one server is one placement.
func (c *Client) NewIDNear(string, string) string { return NewID() }

// Delete implements Store.
func (c *Client) Delete(collection, id string) error {
	_, err := c.roundTrip(request{Op: "delete", Collection: collection, ID: id})
	return err
}

// Find implements Store.
func (c *Client) Find(collection string, eq Document) ([]Document, error) {
	resp, err := c.roundTrip(request{Op: "find", Collection: collection, Filter: eq})
	if err != nil {
		return nil, err
	}
	return resp.Docs, nil
}

// IDs implements Store.
func (c *Client) IDs(collection string) ([]string, error) {
	resp, err := c.roundTrip(request{Op: "ids", Collection: collection})
	if err != nil {
		return nil, err
	}
	return resp.IDs, nil
}

// Stats implements Store.
func (c *Client) Stats() (Stats, error) {
	resp, err := c.roundTrip(request{Op: "stats"})
	if err != nil {
		return Stats{}, err
	}
	if resp.Stats == nil {
		return Stats{}, errors.New("docdb: server returned no stats")
	}
	return *resp.Stats, nil
}

// Ping checks connectivity to the server.
func (c *Client) Ping() error {
	_, err := c.roundTrip(request{Op: "ping"})
	return err
}

// Close implements Store. In-flight operations fail with the close reason.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	m := c.mux
	c.mux = nil
	c.mu.Unlock()
	if m != nil {
		m.close()
	}
	return nil
}
