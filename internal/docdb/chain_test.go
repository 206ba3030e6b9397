package docdb_test

// Chain is checked against a model. Seeded random document forests —
// references to documents no store holds, stop documents, cycles, a line
// longer than docdb.MaxChain, a line heavy enough to hit the byte bound —
// are written to every Store implementation and to a reference MemStore,
// and every Chain answer must equal what one Get per link over the
// reference yields under the rules Store.Chain states.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/docdb"
	"repro/internal/faultnet"
	"repro/internal/shard"
)

const chainCol = "models"

// forest is one seeded document set and the ids to start chains at.
type forest struct {
	docs   map[string]docdb.Document
	ids    []string // every document, in creation order
	starts []string
}

func newForest(seed int64) forest {
	rng := rand.New(rand.NewSource(seed))
	f := forest{docs: make(map[string]docdb.Document)}
	add := func(id string) docdb.Document {
		d := docdb.Document{"seq": id}
		f.docs[id] = d
		f.ids = append(f.ids, id)
		return d
	}
	// A line heavy enough that its answers end at the byte bound, closed
	// by a stop document.
	const heavy = 8
	for i := 0; i < heavy; i++ {
		d := add(fmt.Sprintf("heavy%d", i))
		d["pad"] = strings.Repeat("p", docdb.MaxChainBytes/5+rng.Intn(1000))
		if i < heavy-1 {
			d["base"] = fmt.Sprintf("heavy%d", i+1)
		} else {
			d["code"] = "c"
		}
	}
	// A line longer than the count bound, on every other seed.
	long := 0
	if seed%2 == 0 {
		long = docdb.MaxChain + 20
	}
	for i := 0; i < long; i++ {
		d := add(fmt.Sprintf("line%03d", i))
		if i < long-1 {
			d["base"] = fmt.Sprintf("line%03d", i+1)
		}
	}
	// The random part: mostly references among themselves, so cycles and
	// shared tails are common.
	n := 24 + rng.Intn(24)
	for i := 0; i < n; i++ {
		d := add(fmt.Sprintf("d%03d", i))
		switch r := rng.Intn(40); {
		case r < 26:
			d["base"] = fmt.Sprintf("d%03d", rng.Intn(n))
		case r < 29:
			d["base"] = fmt.Sprintf("gone%03d", i) // held by no store
		case r < 31:
			d["base"] = float64(i) // not a string: no reference
		case r < 32:
			d["base"] = "heavy0"
		case r < 33 && long > 0:
			d["base"] = fmt.Sprintf("line%03d", rng.Intn(long))
		case r < 34:
			d["base"] = fmt.Sprintf("d%03d", i) // a self-loop
		}
		if rng.Intn(6) == 0 {
			d["code"] = "c"
		}
		f.starts = append(f.starts, fmt.Sprintf("d%03d", i))
	}
	f.starts = append(f.starts, "heavy0", "heavy5", "gone-start")
	if long > 0 {
		f.starts = append(f.starts, "line000", fmt.Sprintf("line%03d", long-5))
	}
	return f
}

// cuts counts why the oracle's answers ended, across the whole test, to
// prove every rule was exercised.
type cuts struct{ bytes, count, cycle, stop, missing int }

// oracle is Chain as one Get per link over ref: the walk the rules allow,
// unbounded, then cut to the count bound and — for answers that keep it —
// the byte bound.
func oracle(t *testing.T, ref docdb.Store, id, next, stop string, byteBound bool, c *cuts) ([]docdb.Document, error) {
	t.Helper()
	var path []docdb.Document
	seen := make(map[string]bool)
	for cur := id; ; {
		if seen[cur] {
			c.cycle++
			break
		}
		doc, err := ref.Get(chainCol, cur)
		if errors.Is(err, docdb.ErrNotFound) {
			c.missing++
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		seen[cur] = true
		path = append(path, doc)
		if s, _ := doc[stop].(string); stop != "" && s != "" {
			c.stop++
			break
		}
		if cur, _ = doc[next].(string); cur == "" {
			break
		}
	}
	if len(path) == 0 {
		return nil, docdb.ErrNotFound
	}
	if len(path) > docdb.MaxChain {
		path = path[:docdb.MaxChain]
		c.count++
	}
	if byteBound {
		total := 0
		for k := 1; k < len(path); k++ {
			b, err := json.Marshal(path[k])
			if err != nil {
				t.Fatal(err)
			}
			if total += len(b); total > docdb.MaxChainBytes {
				path = path[:k]
				c.bytes++
				break
			}
		}
	}
	return path, nil
}

// chainImpl is one Store under test. bytes says whether its answers keep
// the byte bound: a shard router's answers are not framed, so only its
// shards' are.
type chainImpl struct {
	name  string
	bytes bool
	open  func(t *testing.T) docdb.Store
}

func serve(t *testing.T) *docdb.Server {
	t.Helper()
	srv, err := docdb.NewServer(docdb.NewMemStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func sharded(shards, vnodes int) func(t *testing.T) docdb.Store {
	return func(t *testing.T) docdb.Store {
		t.Helper()
		ring, err := shard.NewRing(shards, vnodes)
		if err != nil {
			t.Fatal(err)
		}
		backends := make([]docdb.Store, shards)
		for i := range backends {
			backends[i] = docdb.NewMemStore()
		}
		m, err := shard.NewMeta(ring, backends...)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
}

func chainImpls(faults *faultnet.Stats) []chainImpl {
	return []chainImpl{
		{"mem", true, func(*testing.T) docdb.Store { return docdb.NewMemStore() }},
		{"disk", true, func(t *testing.T) docdb.Store {
			s, err := docdb.OpenDisk(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"client over a faulty link", true, func(t *testing.T) docdb.Store {
			c, err := docdb.DialPool(serve(t).Addr(), 1, docdb.ClientOptions{
				Dialer:       faultnet.Dialer(faultnet.Config{Seed: 17, Rate: 0.02, Stats: faults}),
				OpTimeout:    5 * time.Second,
				MaxRetries:   30,
				RetryBackoff: time.Millisecond,
				MaxBackoff:   5 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			return c
		}},
		{"pool", true, func(t *testing.T) docdb.Store {
			p, err := docdb.DialPool(serve(t).Addr(), 2, docdb.ClientOptions{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { p.Close() })
			return p
		}},
		{"shards=1", false, sharded(1, 0)},
		{"shards=2", false, sharded(2, 0)},
		{"shards=4", false, sharded(4, 0)},
		{"shards=4-resharded", false, sharded(4, 17)},
	}
}

func encode(t *testing.T, docs []docdb.Document) string {
	t.Helper()
	b, err := json.Marshal(docs)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestChainMatchesGetLoopOracle(t *testing.T) {
	var faults faultnet.Stats
	var c cuts
	for seed := int64(1); seed <= 4; seed++ {
		f := newForest(seed)
		ref := docdb.NewMemStore()
		for _, id := range f.ids {
			if err := ref.Put(chainCol, id, f.docs[id]); err != nil {
				t.Fatal(err)
			}
		}
		for _, impl := range chainImpls(&faults) {
			s := impl.open(t)
			for _, id := range f.ids {
				if err := s.Put(chainCol, id, f.docs[id]); err != nil {
					t.Fatalf("seed %d %s: put %s: %v", seed, impl.name, id, err)
				}
			}
			for _, q := range [][2]string{{"base", "code"}, {"base", ""}} {
				for _, start := range f.starts {
					want, werr := oracle(t, ref, start, q[0], q[1], impl.bytes, &c)
					got, err := s.Chain(chainCol, start, q[0], q[1])
					if werr != nil {
						if !errors.Is(err, werr) {
							t.Fatalf("seed %d %s: Chain(%s, next %q, stop %q) err = %v, want %v", seed, impl.name, start, q[0], q[1], err, werr)
						}
						continue
					}
					if err != nil {
						t.Fatalf("seed %d %s: Chain(%s, next %q, stop %q): %v", seed, impl.name, start, q[0], q[1], err)
					}
					if g, w := encode(t, got), encode(t, want); g != w {
						t.Fatalf("seed %d %s: Chain(%s, next %q, stop %q) returned %d documents, the oracle %d:\n got %.300s\nwant %.300s",
							seed, impl.name, start, q[0], q[1], len(got), len(want), g, w)
					}
				}
			}
		}
	}
	if c.bytes == 0 || c.count == 0 || c.cycle == 0 || c.stop == 0 || c.missing == 0 {
		t.Errorf("the forests did not exercise every way a chain ends: %+v", c)
	}
	if faults.Total() == 0 {
		t.Error("the faulty link injected nothing; the client case proved nothing")
	}
}
