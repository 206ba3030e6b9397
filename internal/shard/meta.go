package shard

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/docdb"
	"repro/internal/obs"
)

// Meta is a docdb.Store that routes documents across N backend stores by
// consistent-hashing (collection, id). Single-document operations go to
// exactly one shard; collection-wide operations fan out to every shard in
// parallel and merge, preserving the engine contract that identifier
// listings are lexicographically ordered.
type Meta struct {
	ring     *Ring
	backends []docdb.Store
	hists    []*obs.Histogram
}

var _ docdb.Store = (*Meta)(nil)

// NewMeta builds a sharded store over the ring's backends. The backend
// count must match the ring's node count — a mismatch would silently route
// keys to the wrong store, so it is rejected loudly.
func NewMeta(ring *Ring, backends ...docdb.Store) (*Meta, error) {
	if len(backends) != ring.Nodes() {
		return nil, fmt.Errorf("shard: ring expects %d backends, got %d", ring.Nodes(), len(backends))
	}
	m := &Meta{ring: ring, backends: backends, hists: make([]*obs.Histogram, len(backends))}
	for i := range backends {
		m.hists[i] = obs.Default().Histogram(fmt.Sprintf("shard.meta.%d.op_us", i))
	}
	return m, nil
}

// DialMeta connects to one document server per shard, in ring order,
// through a pool of poolSize pipelined connections each (<= 0 selects the
// default size), and routes across them. If a dial fails, the pools already
// opened are closed.
func DialMeta(addrs []string, poolSize int, opts docdb.ClientOptions) (*Meta, error) {
	ring, err := NewRing(len(addrs), 0)
	if err != nil {
		return nil, err
	}
	pools := make([]docdb.Store, 0, len(addrs))
	for _, addr := range addrs {
		p, err := docdb.DialPool(addr, poolSize, opts)
		if err != nil {
			(&Meta{backends: pools}).Close()
			return nil, err
		}
		pools = append(pools, p)
	}
	return NewMeta(ring, pools...)
}

// owner returns the shard index that stores (collection, id).
func (m *Meta) owner(collection, id string) int {
	return m.ring.Owner(collection + "/" + id)
}

// observe times one single-shard operation into that shard's histogram.
func (m *Meta) observe(i int, t0 time.Time) {
	m.hists[i].ObserveDuration(time.Since(t0))
}

// fanOut runs fn for every shard concurrently — one goroutine per shard,
// bounded by the counted loop — times each into that shard's histogram and
// joins the per-shard errors. Meta and Files both fan out through it.
func fanOut(hists []*obs.Histogram, fn func(i int) error) error {
	errs := make([]error, len(hists))
	var wg sync.WaitGroup
	for i := 0; i < len(hists); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			errs[i] = fn(i)
			hists[i].ObserveDuration(time.Since(t0))
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Insert implements docdb.Store. The identifier is generated here — before
// any byte is written — because the identifier IS the routing key: only
// with a client-side id does "which shard holds this document" have one
// deterministic answer. The write itself is an idempotent Put on the owner,
// so a retried write rewrites the same document.
func (m *Meta) Insert(collection string, doc docdb.Document) (string, error) {
	id := docdb.NewID()
	i := m.owner(collection, id)
	defer m.observe(i, time.Now())
	if err := m.backends[i].Put(collection, id, doc); err != nil {
		return "", err
	}
	return id, nil
}

// Put implements docdb.Store.
func (m *Meta) Put(collection, id string, doc docdb.Document) error {
	i := m.owner(collection, id)
	defer m.observe(i, time.Now())
	return m.backends[i].Put(collection, id, doc)
}

// Get implements docdb.Store.
func (m *Meta) Get(collection, id string) (docdb.Document, error) {
	i := m.owner(collection, id)
	defer m.observe(i, time.Now())
	return m.backends[i].Get(collection, id)
}

// Chain implements docdb.Store: it asks the owner of id, and whenever the
// documents a shard returned run out, the owner of the next one — so a
// chain costs one call per run of consecutive documents on one shard. The
// walk ends where a single store's would; the answer is never framed, so
// only the shards' own answers are held to the byte bound.
func (m *Meta) Chain(collection, id, next, stop string) ([]docdb.Document, error) {
	var ahead []docdb.Document // the rest of the last shard's answer
	return docdb.WalkChain(id, next, stop, func(cur string) (docdb.Document, int, error) {
		if len(ahead) == 0 {
			i := m.owner(collection, cur)
			t0 := time.Now()
			docs, err := m.backends[i].Chain(collection, cur, next, stop)
			m.observe(i, t0)
			if err != nil {
				return nil, 0, err
			}
			if len(docs) == 0 {
				return nil, 0, docdb.ErrNotFound
			}
			ahead = docs
		}
		doc := ahead[0]
		ahead = ahead[1:]
		return doc, 0, nil
	})
}

// placementDraws bounds the identifiers NewIDNear draws looking for one
// that routes beside its anchor. A draw lands on a given shard with
// probability ~1/N, so all draws miss on 4 shards with probability
// (3/4)^64 ≈ 1e-8 — and a miss only costs a later chain read one call.
const placementDraws = 64

// NewIDNear implements docdb.Store: it draws identifiers until one routes
// to the shard that owns near. Routing stays a pure function of the
// identifier; only which identifier is chosen depends on near.
func (m *Meta) NewIDNear(collection, near string) string {
	id := docdb.NewID()
	if near == "" {
		return id
	}
	want := m.owner(collection, near)
	for n := 1; n < placementDraws && m.owner(collection, id) != want; n++ {
		id = docdb.NewID()
	}
	return id
}

// Delete implements docdb.Store.
func (m *Meta) Delete(collection, id string) error {
	i := m.owner(collection, id)
	defer m.observe(i, time.Now())
	return m.backends[i].Delete(collection, id)
}

// IDs implements docdb.Store: every shard lists in parallel and the merged
// result is re-sorted, so callers see the same lexicographic order a
// single-backend store returns — regardless of how many shards exist.
func (m *Meta) IDs(collection string) ([]string, error) {
	parts := make([][]string, len(m.backends))
	err := fanOut(m.hists, func(i int) error {
		ids, err := m.backends[i].IDs(collection)
		parts[i] = ids
		return err
	})
	if err != nil {
		return nil, err
	}
	var out []string
	for _, p := range parts {
		out = append(out, p...)
	}
	sort.Strings(out)
	return out, nil
}

// Find implements docdb.Store. It is deliberately built on IDs + Get +
// docdb.Matches rather than fanning Find out directly: found documents do
// not carry their identifiers, so per-shard Find results cannot be merged
// back into the global lexicographic order the engine contract promises.
// Find is an audit/listing operation in this repo, never a hot path, so the
// extra round trips buy contract fidelity cheaply.
func (m *Meta) Find(collection string, eq docdb.Document) ([]docdb.Document, error) {
	ids, err := m.IDs(collection)
	if err != nil {
		return nil, err
	}
	var out []docdb.Document
	for _, id := range ids {
		doc, err := m.Get(collection, id)
		if errors.Is(err, docdb.ErrNotFound) {
			continue // deleted between the listing and the read
		}
		if err != nil {
			return nil, err
		}
		if docdb.Matches(doc, eq) {
			out = append(out, doc)
		}
	}
	return out, nil
}

// Stats implements docdb.Store by summing per-shard stats. The collection
// count is the maximum across shards rather than the sum: a collection
// usually spans every shard, and summing would count it N times.
func (m *Meta) Stats() (docdb.Stats, error) {
	parts := make([]docdb.Stats, len(m.backends))
	err := fanOut(m.hists, func(i int) error {
		st, err := m.backends[i].Stats()
		parts[i] = st
		return err
	})
	if err != nil {
		return docdb.Stats{}, err
	}
	var out docdb.Stats
	for _, st := range parts {
		if st.Collections > out.Collections {
			out.Collections = st.Collections
		}
		out.Documents += st.Documents
		out.SizeBytes += st.SizeBytes
	}
	return out, nil
}

// Close implements docdb.Store, closing every backend.
func (m *Meta) Close() error {
	errs := make([]error, len(m.backends))
	for i, b := range m.backends {
		errs[i] = b.Close()
	}
	return errors.Join(errs...)
}
