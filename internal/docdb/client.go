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

// DefaultPoolSize is the connection count DialPool uses when the caller
// passes size <= 0. Four multiplexed connections saturate the in-process
// benchmarks; real deployments size the pool to their concurrency.
const DefaultPoolSize = 4

// failCooldown is how long a connection is passed over after it failed.
// Attempts land on the Client's other connections meanwhile; once the
// cooldown passes the connection is picked again and heals by redialing.
const failCooldown = 500 * time.Millisecond

// ClientOptions tune the network client's fault-tolerance behavior. The
// zero value selects the defaults documented on each field.
type ClientOptions struct {
	// OpTimeout is the deadline applied to each request/response round
	// trip on the wire (default 10s). A stalled link fails the attempt
	// instead of hanging the caller forever.
	OpTimeout time.Duration
	// MaxRetries is how many additional attempts follow a failed attempt
	// (default 4). A connection that saw a frame error is poisoned and
	// never reused, so a retry runs on another connection or a redial.
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

// Client is a Store implementation that talks to a Server over TCP. It
// holds a fixed number of connections, each shared by all callers and
// multiplexed — every goroutine's request is tagged with a correlation
// sequence number, a writer goroutine pipelines the frames, and a demux
// reader pairs each response with its waiter, so many operations overlap
// on the wire instead of queueing behind one another. Every attempt picks
// a connection round-robin, passing over those that failed within the
// last failCooldown, so one poisoned link costs a retry on a live
// connection instead of a wait on a redial.
//
// The client assumes the link is allowed to fail. Any frame error poisons
// the connection it happened on — it is closed immediately, every
// in-flight waiter fails at once, and the conn is never reused, so a late
// response to a failed request can never be paired with another request.
// Every operation is idempotent — reads, full-document overwrites,
// deletes, and Insert, which is a Put under a client-generated identifier
// — so the failed ones retry with exponential backoff.
type Client struct {
	addr   string
	opts   ClientOptions
	conns  []*clientConn
	next   atomic.Uint64
	closed atomic.Bool
}

// clientConn is one of a Client's connections: the live multiplexed conn,
// if any, and the redial that replaces it after a failure.
type clientConn struct {
	mu      sync.Mutex
	mux     *muxConn
	dialing *dialFuture // non-nil while a redial is in flight

	// failedAt is the wall time (unix nanos) of the last failure, zeroed by
	// the next successful operation; pick passes over the conn while it is
	// within failCooldown.
	failedAt atomic.Int64
}

// dialFuture lets concurrent operations share one redial instead of
// stampeding the server with a dial per blocked caller.
type dialFuture struct {
	done chan struct{}
	m    *muxConn
	err  error
}

// Dial connects to a docdb server at addr over one connection with
// default options.
func Dial(addr string) (*Client, error) {
	return DialPool(addr, 1, ClientOptions{})
}

// DialPool connects to a docdb server at addr over size connections
// (size <= 0 selects DefaultPoolSize). Each connection and its protocol
// version check happen eagerly, one after another, so an unreachable
// server, or one that speaks another version, fails the dial, not the
// first operation. A server that was reached but whose handshake frames
// were lost to a link fault does NOT fail the dial: that is the flaky-link
// case the client's retries exist for, so the connection heals by
// redialing on use.
func DialPool(addr string, size int, opts ClientOptions) (*Client, error) {
	if size <= 0 {
		size = DefaultPoolSize
	}
	c := &Client{addr: addr, opts: opts.withDefaults(), conns: make([]*clientConn, size)}
	for i := range c.conns {
		c.conns[i] = &clientConn{}
	}
	for _, cc := range c.conns {
		if _, err := c.getMux(cc); err != nil && !errors.Is(err, errHandshake) {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

var _ Store = (*Client)(nil)

// pick chooses the connection for one attempt: round-robin for load
// spreading, advanced past connections in their failure cooldown. When
// every connection is in cooldown the round-robin choice is used anyway —
// it redials on use, so a full outage heals as soon as the server returns.
func (c *Client) pick() *clientConn {
	i := int(c.next.Add(1)-1) % len(c.conns)
	for k := range c.conns {
		if cc := c.conns[(i+k)%len(c.conns)]; !cc.cooling() {
			return cc
		}
	}
	return c.conns[i]
}

// cooling reports whether the conn failed within the last failCooldown.
func (cc *clientConn) cooling() bool {
	at := cc.failedAt.Load()
	return at != 0 && time.Since(time.Unix(0, at)) <= failCooldown
}

// getMux returns cc's live connection, sharing one redial among all
// callers that find it missing. The dial itself runs outside cc.mu so
// operations on a healthy conn never serialize behind a reconnect.
func (c *Client) getMux(cc *clientConn) (*muxConn, error) {
	cc.mu.Lock()
	if c.closed.Load() {
		cc.mu.Unlock()
		return nil, errMuxClosed
	}
	if m := cc.mux; m != nil && m.healthy() {
		cc.mu.Unlock()
		return m, nil
	}
	f := cc.dialing
	if f == nil {
		f = &dialFuture{done: make(chan struct{})}
		cc.dialing = f
		go c.runDial(cc, f)
	}
	cc.mu.Unlock()
	<-f.done
	return f.m, f.err
}

// runDial performs the shared redial and publishes its outcome. A dial
// that loses the race with Close is discarded — outside cc.mu, because
// closing a mux waits for its loops to exit. Close sets c.closed before it
// takes cc.mu, so either this check sees it or Close sees cc.mux.
func (c *Client) runDial(cc *clientConn, f *dialFuture) {
	m, err := dialMux(c.addr, c.opts)
	cc.mu.Lock()
	stale := c.closed.Load() && m != nil
	if stale {
		cc.mux = nil
	} else {
		cc.mux = m
	}
	cc.dialing = nil
	cc.mu.Unlock()
	if stale {
		m.close()
		m, err = nil, errMuxClosed
	}
	f.m, f.err = m, err
	close(f.done)
}

// drop retires a connection after a failed exchange: poison kills its
// in-flight waiters (their own roundTrips retry elsewhere), the cooldown
// steers new attempts away, and the conn is forgotten so its next use
// redials.
func (c *Client) drop(cc *clientConn, m *muxConn, reason error) {
	m.poison(reason)
	cc.failedAt.Store(time.Now().UnixNano())
	cc.mu.Lock()
	if cc.mux == m {
		cc.mux = nil
	}
	cc.mu.Unlock()
}

func (c *Client) roundTrip(req request) (response, error) {
	if c.closed.Load() {
		return response{}, errMuxClosed
	}
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
		cc := c.pick()
		m, err := c.getMux(cc)
		if err != nil {
			lastErr = err
			if errors.Is(err, errMuxClosed) {
				break
			}
			cc.failedAt.Store(time.Now().UnixNano())
			continue
		}
		resp, err := m.do(req)
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				cliDeadline.Inc()
			}
			// A failed exchange retires the whole conn: a link that ate
			// one response is not trusted with the others. Concurrent
			// waiters fail fast and retry on another conn.
			c.drop(cc, m, err)
			lastErr = err
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
		cc.failedAt.Store(0)
		return resp, nil
	}
	cliErrors.Inc()
	return response{}, fmt.Errorf("docdb: %s failed after %d attempts: %w", req.Op, c.opts.MaxRetries+1, lastErr)
}

// Insert implements Store as a Put under a fresh identifier, so a retry
// after a lost response rewrites the same document instead of creating a
// second one.
func (c *Client) Insert(collection string, doc Document) (string, error) {
	id := NewID()
	return id, c.Put(collection, id, doc)
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
	if c.closed.Swap(true) {
		return nil
	}
	for _, cc := range c.conns {
		cc.mu.Lock()
		m := cc.mux
		cc.mux = nil
		cc.mu.Unlock()
		if m != nil {
			m.close()
		}
	}
	return nil
}
