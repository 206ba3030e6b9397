package docdb

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// DefaultPoolSize is the connection count DialPool uses when the caller
// passes size <= 0. Four multiplexed connections saturate the in-process
// benchmarks; real deployments size the pool to their concurrency.
const DefaultPoolSize = 4

// ClientPool is a Store backed by a fixed set of multiplexed Clients to one
// server. Each operation checks out a connection round-robin, skipping
// clients that recently lost their conn (health-aware checkout), so a
// single poisoned link degrades throughput instead of serializing every
// caller behind one reconnect. The pool is bounded: it never opens more
// than its configured number of connections, and since every Client is
// itself multiplexed, pool size × server worker bound caps the server-side
// work a single process can demand.
type ClientPool struct {
	clients []*Client
	next    atomic.Uint64
	closed  atomic.Bool
}

var _ Store = (*ClientPool)(nil)

// DialPool connects size clients to addr. Dialing is eager: an unreachable
// server fails the pool, not the first operation. size <= 0 selects
// DefaultPoolSize.
func DialPool(addr string, size int, opts ClientOptions) (*ClientPool, error) {
	if size <= 0 {
		size = DefaultPoolSize
	}
	p := &ClientPool{}
	for i := 0; i < size; i++ {
		c, err := DialOptions(addr, opts)
		if err != nil {
			p.Close()
			return nil, fmt.Errorf("docdb: dialing pool conn %d/%d: %w", i+1, size, err)
		}
		p.clients = append(p.clients, c)
	}
	return p, nil
}

// Size returns the pool's connection bound.
func (p *ClientPool) Size() int { return len(p.clients) }

// pick checks out a client for one operation: round-robin for load
// spreading, advanced past unhealthy clients so fresh traffic lands on
// conns that were not just poisoned. When every client is in cooldown the
// round-robin choice is used anyway — it redials on use, so a full outage
// heals as soon as the server returns.
func (p *ClientPool) pick() *Client {
	i := int(p.next.Add(1)-1) % len(p.clients)
	for k := 0; k < len(p.clients); k++ {
		if c := p.clients[(i+k)%len(p.clients)]; c.Healthy() {
			return c
		}
	}
	return p.clients[i]
}

// Insert implements Store.
func (p *ClientPool) Insert(collection string, doc Document) (string, error) {
	return p.pick().Insert(collection, doc)
}

// Put implements Store.
func (p *ClientPool) Put(collection, id string, doc Document) error {
	return p.pick().Put(collection, id, doc)
}

// Get implements Store.
func (p *ClientPool) Get(collection, id string) (Document, error) {
	return p.pick().Get(collection, id)
}

// Chain implements Store.
func (p *ClientPool) Chain(collection, id, next, stop string) ([]Document, error) {
	return p.pick().Chain(collection, id, next, stop)
}

// NewIDNear implements Store: one server is one placement.
func (p *ClientPool) NewIDNear(string, string) string { return NewID() }

// Delete implements Store.
func (p *ClientPool) Delete(collection, id string) error {
	return p.pick().Delete(collection, id)
}

// Find implements Store.
func (p *ClientPool) Find(collection string, eq Document) ([]Document, error) {
	return p.pick().Find(collection, eq)
}

// IDs implements Store.
func (p *ClientPool) IDs(collection string) ([]string, error) {
	return p.pick().IDs(collection)
}

// Stats implements Store.
func (p *ClientPool) Stats() (Stats, error) {
	return p.pick().Stats()
}

// Ping checks connectivity on one pooled connection.
func (p *ClientPool) Ping() error {
	return p.pick().Ping()
}

// Close implements Store, closing every pooled client.
func (p *ClientPool) Close() error {
	if p.closed.Swap(true) {
		return nil
	}
	var errs []error
	for _, c := range p.clients {
		if err := c.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
