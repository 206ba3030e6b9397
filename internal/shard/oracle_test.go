package shard_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/docdb"
	"repro/internal/shard"
)

// oracle is the Store contract over a map of encodings: a document is
// stored as its json.Marshal bytes and read back through docdb.Unmarshal,
// whatever engine holds it.
type oracle struct {
	docs map[string]map[string][]byte
	// place maps a document to the backend that holds it; cols[i] is the
	// set of collections backend i has stored a document of. Stats counts
	// collections per backend, and a sharded store reports the largest.
	place func(collection, id string) int
	cols  []map[string]bool
}

func newOracle(backends int, place func(collection, id string) int) *oracle {
	o := &oracle{docs: map[string]map[string][]byte{}, place: place}
	for i := 0; i < backends; i++ {
		o.cols = append(o.cols, map[string]bool{})
	}
	return o
}

func (o *oracle) put(collection, id string, doc docdb.Document) error {
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if o.docs[collection] == nil {
		o.docs[collection] = map[string][]byte{}
	}
	o.docs[collection][id] = b
	o.cols[o.place(collection, id)][collection] = true
	return nil
}

func (o *oracle) get(collection, id string) (docdb.Document, error) {
	b, ok := o.docs[collection][id]
	if !ok {
		return nil, docdb.ErrNotFound
	}
	var doc docdb.Document
	err := docdb.Unmarshal(b, &doc)
	return doc, err
}

func (o *oracle) del(collection, id string) error {
	if _, ok := o.docs[collection][id]; !ok {
		return docdb.ErrNotFound
	}
	delete(o.docs[collection], id)
	return nil
}

func (o *oracle) ids(collection string) []string {
	var ids []string
	for id := range o.docs[collection] {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func (o *oracle) find(collection string, eq docdb.Document) []docdb.Document {
	var out []docdb.Document
	for _, id := range o.ids(collection) {
		doc, _ := o.get(collection, id)
		if docdb.Matches(doc, eq) {
			out = append(out, doc)
		}
	}
	return out
}

// chain follows next from id. The test's chains hold a few dozen small
// documents, far inside both of the Store's chain bounds.
func (o *oracle) chain(collection, id string) ([]docdb.Document, error) {
	var out []docdb.Document
	seen := map[string]bool{}
	for cur := id; !seen[cur]; {
		doc, err := o.get(collection, cur)
		if err != nil {
			if len(out) == 0 {
				return nil, err
			}
			break
		}
		out = append(out, doc)
		seen[cur] = true
		if s, _ := doc["stop"].(string); s != "" {
			break
		}
		if cur, _ = doc["next"].(string); cur == "" {
			break
		}
	}
	return out, nil
}

func (o *oracle) stats() docdb.Stats {
	var st docdb.Stats
	for _, cols := range o.cols {
		st.Collections = max(st.Collections, len(cols))
	}
	for _, col := range o.docs {
		for _, b := range col {
			st.Documents++
			st.SizeBytes += int64(len(b))
		}
	}
	return st
}

// oracleStore is one Store under test with the placement its oracle
// models.
type oracleStore struct {
	store    docdb.Store
	backends int
	place    func(collection, id string) int
}

func oneBackend(string, string) int { return 0 }

// oracleStores are the Store implementations TestStoresMatchOracle runs:
// both engines, the network client over a server, and the sharded router.
var oracleStores = []struct {
	name string
	open func(t *testing.T) oracleStore
}{
	{"MemStore", func(t *testing.T) oracleStore {
		return oracleStore{docdb.NewMemStore(), 1, oneBackend}
	}},
	{"DiskStore", func(t *testing.T) oracleStore {
		s, err := docdb.OpenDisk(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return oracleStore{s, 1, oneBackend}
	}},
	{"Client", func(t *testing.T) oracleStore {
		srv, err := docdb.NewServer(docdb.NewMemStore(), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		// A document the client cannot encode fails the attempt and is
		// retried; short backoffs keep those puts cheap.
		c, err := docdb.DialPool(srv.Addr(), 1, docdb.ClientOptions{RetryBackoff: time.Microsecond, MaxBackoff: time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		return oracleStore{c, 1, oneBackend}
	}},
	{"Meta", func(t *testing.T) oracleStore {
		ring, err := shard.NewRing(2, 0)
		if err != nil {
			t.Fatal(err)
		}
		m, err := shard.NewMeta(ring, docdb.NewMemStore(), docdb.NewMemStore())
		if err != nil {
			t.Fatal(err)
		}
		return oracleStore{m, 2, func(collection, id string) int { return ring.Owner(collection + "/" + id) }}
	}},
}

// randDoc builds a document with an int, an int past 2^53, a float, a
// []string, a nested Document and a nested []any; some link to another
// identifier of the pool (which may be missing, or close a cycle), some
// stop a chain, and a few hold a NaN no store can encode.
func randDoc(r *rand.Rand, pool []string) docdb.Document {
	doc := docdb.Document{
		"n":    r.Intn(4),
		"seed": uint64(1)<<53 + uint64(r.Intn(8)),
		"x":    float64(r.Intn(8)) / 4,
		"kind": fmt.Sprintf("k%d", r.Intn(3)),
		"tags": []string{"a", fmt.Sprint(r.Intn(3))},
		"cfg":  docdb.Document{"depth": r.Intn(3), "opts": []any{"sgd", r.Intn(2)}},
	}
	if r.Intn(3) > 0 {
		doc["next"] = pool[r.Intn(len(pool))]
	}
	if r.Intn(6) == 0 {
		doc["stop"] = "yes"
	}
	if r.Intn(40) == 0 {
		doc["x"] = math.NaN()
	}
	return doc
}

// scribble writes to every part of a document a store must not share with
// its caller: a top-level value, a nested object and a slice.
func scribble(doc docdb.Document) {
	for k, v := range doc {
		switch v := v.(type) {
		case []string:
			v[0] = "scribbled"
		case []any:
			v[0] = "scribbled"
		case docdb.Document:
			scribble(v)
		case map[string]any:
			scribble(v)
		default:
			doc[k] = "scribbled"
		}
	}
}

// TestStoresMatchOracle runs seeded random sequences of every Store
// operation against each implementation and checks each answer against
// the oracle: decoded documents with reflect.DeepEqual, Stats exactly. The
// caller writes to each document it put, and to each it got back.
func TestStoresMatchOracle(t *testing.T) {
	const seeds, ops = 3, 250
	collections := []string{"models", "envs"}
	// Documents link only to the fixed identifiers, so chains run through
	// documents that exist; Insert adds identifiers nothing links to.
	fixed := []string{"a0", "a1", "a2", "a3", "a4", "a5"}
	filters := []docdb.Document{nil, {"kind": "k1"}, {"n": 2}, {"x": 0.5}, {"x": 1.0}, {"kind": "k0", "n": 0}}
	for _, impl := range oracleStores {
		unencodable := 0
		for seed := int64(1); seed <= seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", impl.name, seed), func(t *testing.T) {
				s := impl.open(t)
				defer s.store.Close()
				o := newOracle(s.backends, s.place)
				r := rand.New(rand.NewSource(seed))
				pool := append([]string(nil), fixed...)
				for step := 0; step < ops; step++ {
					col := collections[r.Intn(len(collections))]
					id := pool[r.Intn(len(pool))]
					fail := func(op string, got, want any) {
						t.Helper()
						t.Fatalf("step %d: %s(%s, %s):\n got %#v\nwant %#v", step, op, col, id, got, want)
					}
					switch r.Intn(12) {
					case 0, 1, 2, 3:
						doc := randDoc(r, fixed)
						err, want := s.store.Put(col, id, doc), o.put(col, id, doc)
						if (err == nil) != (want == nil) {
							fail("Put", err, want)
						}
						if want != nil {
							unencodable++
						}
						scribble(doc)
					case 4:
						doc := randDoc(r, fixed)
						newID, err := s.store.Insert(col, doc)
						if want := o.put(col, newID, doc); (err == nil) != (want == nil) {
							fail("Insert", err, want)
						}
						if err == nil {
							pool = append(pool, newID)
						}
						scribble(doc)
					case 5, 6:
						got, err := s.store.Get(col, id)
						want, werr := o.get(col, id)
						if !errors.Is(err, werr) || !reflect.DeepEqual(got, want) {
							fail("Get", []any{got, err}, []any{want, werr})
						}
						if got != nil {
							scribble(got)
						}
					case 7:
						err, want := s.store.Delete(col, id), o.del(col, id)
						if !errors.Is(err, want) {
							fail("Delete", err, want)
						}
					case 8, 9:
						if have := o.ids(col); len(have) > 0 && r.Intn(4) > 0 {
							id = have[r.Intn(len(have))]
						}
						got, err := s.store.Chain(col, id, "next", "stop")
						want, werr := o.chain(col, id)
						if !errors.Is(err, werr) || !reflect.DeepEqual(got, want) {
							fail("Chain", []any{got, err}, []any{want, werr})
						}
						for _, doc := range got {
							scribble(doc)
						}
					case 10:
						got, err := s.store.IDs(col)
						if want := o.ids(col); err != nil || !reflect.DeepEqual(got, want) {
							fail("IDs", []any{got, err}, want)
						}
						eq := filters[r.Intn(len(filters))]
						found, err := s.store.Find(col, eq)
						if want := o.find(col, eq); err != nil || !reflect.DeepEqual(found, want) {
							fail(fmt.Sprintf("Find %v", eq), []any{found, err}, want)
						}
					case 11:
						got, err := s.store.Stats()
						if want := o.stats(); err != nil || got != want {
							fail("Stats", []any{got, err}, want)
						}
					}
				}
			})
		}
		if unencodable == 0 {
			t.Errorf("%s: no sequence put a document that cannot be encoded", impl.name)
		}
	}
}
