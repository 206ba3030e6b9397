package docdb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// storeTest exercises the full Store contract against any implementation.
func storeTest(t *testing.T, s Store) {
	t.Helper()

	// Insert and Get.
	id, err := s.Insert("models", Document{"name": "resnet18", "params": 11689512})
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Fatal("Insert returned empty id")
	}
	doc, err := s.Get("models", id)
	if err != nil {
		t.Fatal(err)
	}
	if doc["name"] != "resnet18" {
		t.Fatalf("Get = %v", doc)
	}

	// Put overwrites.
	if err := s.Put("models", id, Document{"name": "resnet50"}); err != nil {
		t.Fatal(err)
	}
	doc, err = s.Get("models", id)
	if err != nil {
		t.Fatal(err)
	}
	if doc["name"] != "resnet50" {
		t.Fatalf("Put did not overwrite: %v", doc)
	}

	// Get missing.
	if _, err := s.Get("models", NewID()); err != ErrNotFound {
		t.Fatalf("Get missing: err = %v, want ErrNotFound", err)
	}
	if _, err := s.Get("nosuchcollection", id); err != ErrNotFound {
		t.Fatalf("Get missing collection: err = %v, want ErrNotFound", err)
	}

	// Find with equality filter.
	id2, err := s.Insert("models", Document{"name": "resnet50", "kind": "cv"})
	if err != nil {
		t.Fatal(err)
	}
	docs, err := s.Find("models", Document{"name": "resnet50"})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 {
		t.Fatalf("Find = %d docs, want 2", len(docs))
	}
	docs, err = s.Find("models", Document{"kind": "cv"})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 {
		t.Fatalf("Find kind=cv = %d docs, want 1", len(docs))
	}
	// Empty filter matches all.
	docs, err = s.Find("models", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 2 {
		t.Fatalf("Find nil = %d docs, want 2", len(docs))
	}
	// Find in missing collection is empty, not an error.
	docs, err = s.Find("ghost", nil)
	if err != nil || len(docs) != 0 {
		t.Fatalf("Find ghost = %v, %v", docs, err)
	}

	// IDs.
	ids, err := s.IDs("models")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 {
		t.Fatalf("IDs = %v, want 2 entries", ids)
	}

	// Stats.
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Documents != 2 || st.Collections != 1 || st.SizeBytes <= 0 {
		t.Fatalf("Stats = %+v", st)
	}

	// Delete.
	if err := s.Delete("models", id2); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("models", id2); err != ErrNotFound {
		t.Fatalf("double Delete: err = %v, want ErrNotFound", err)
	}
	if err := s.Delete("ghost", "x"); err != ErrNotFound {
		t.Fatalf("Delete missing collection: err = %v, want ErrNotFound", err)
	}

	// Nested documents survive round trips.
	nested := Document{
		"env":    Document{"go": "1.22", "os": "linux"},
		"layers": []any{"conv1", "bn1"},
	}
	nid, err := s.Insert("meta", nested)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("meta", nid)
	if err != nil {
		t.Fatal(err)
	}
	env, ok := got["env"].(map[string]any)
	if !ok {
		t.Fatalf("nested env lost: %#v", got["env"])
	}
	if env["go"] != "1.22" {
		t.Fatalf("nested value lost: %v", env)
	}
}

func TestMemStoreContract(t *testing.T) {
	s := NewMemStore()
	defer s.Close()
	storeTest(t, s)
}

func TestDiskStoreContract(t *testing.T) {
	s, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	storeTest(t, s)
}

func TestClientServerContract(t *testing.T) {
	backend := NewMemStore()
	srv, err := NewServer(backend, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	storeTest(t, c)
}

func TestDiskStorePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	id, err := s.Insert("c", Document{"k": "v"})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	doc, err := s2.Get("c", id)
	if err != nil {
		t.Fatal(err)
	}
	if doc["k"] != "v" {
		t.Fatalf("persisted doc = %v", doc)
	}
}

// TestDiskStoreRecreatesMissingCollection removes a collection's directory
// between two Puts: the second Put finds it missing when it stages the
// document, creates it again and commits.
func TestDiskStoreRecreatesMissingCollection(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("c", "a", Document{"k": "v"}); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(dir, "c")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("c", "b", Document{"k": "w"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("c", "a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get of the removed document: err = %v, want ErrNotFound", err)
	}
	doc, err := s.Get("c", "b")
	if err != nil {
		t.Fatal(err)
	}
	if doc["k"] != "w" {
		t.Fatalf("recreated collection holds %v", doc)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "c"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "b.json" {
		t.Fatalf("collection directory holds %v, want only b.json", entries)
	}
}

func TestDiskStoreRejectsBadNames(t *testing.T) {
	s, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put("../evil", "id", Document{}); err == nil {
		t.Fatal("expected error for path traversal in collection")
	}
	if err := s.Put("c", "../evil", Document{}); err == nil {
		t.Fatal("expected error for path traversal in id")
	}
	if err := s.Put("", "id", Document{}); err == nil {
		t.Fatal("expected error for empty collection")
	}
	if err := s.Put("c", "", Document{}); err == nil {
		t.Fatal("expected error for empty id")
	}
}

func TestMemStoreIsolation(t *testing.T) {
	s := NewMemStore()
	defer s.Close()
	doc := Document{"k": "v", "nested": Document{"a": 1}}
	id, _ := s.Insert("c", doc)
	doc["k"] = "mutated"
	got, _ := s.Get("c", id)
	if got["k"] != "v" {
		t.Fatal("store must not alias caller's document")
	}
	got["k"] = "mutated2"
	got2, _ := s.Get("c", id)
	if got2["k"] != "v" {
		t.Fatal("returned documents must be copies")
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, err := NewServer(NewMemStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients = 8
	const docsPerClient = 25
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < docsPerClient; j++ {
				id, err := c.Insert("c", Document{"client": i, "seq": j})
				if err != nil {
					errs <- err
					return
				}
				if _, err := c.Get("c", id); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	ids, err := func() ([]string, error) {
		c, err := Dial(srv.Addr())
		if err != nil {
			return nil, err
		}
		defer c.Close()
		return c.IDs("c")
	}()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != clients*docsPerClient {
		t.Fatalf("got %d docs, want %d", len(ids), clients*docsPerClient)
	}
}

func TestServerUnknownOp(t *testing.T) {
	srv, err := NewServer(NewMemStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp := srv.handle(request{Op: "frobnicate"})
	if resp.OK || resp.Error == "" {
		t.Fatalf("unknown op: %+v", resp)
	}
}

func TestClientAfterClose(t *testing.T) {
	srv, err := NewServer(NewMemStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal("second Close should be nil")
	}
	if _, err := c.Insert("c", Document{}); err == nil {
		t.Fatal("expected error after Close")
	}
}

// TestEnginesAgreeOnOrdering puts the same documents into every engine —
// memory, disk, and the network client — and requires IDs and Find to
// return them in the same (lexicographic) order. The memory engine used to
// leak Go's randomized map iteration order while the disk engine returned
// directory order; any code observing result order behaved differently
// depending on which engine backed it.
func TestEnginesAgreeOnOrdering(t *testing.T) {
	disk, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	mem := NewMemStore()
	defer mem.Close()
	srv, err := NewServer(NewMemStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	engines := map[string]Store{"mem": mem, "disk": disk, "client": client}
	// Insert under fixed identifiers in a deliberately non-sorted order.
	ids := []string{"m9", "a1", "z5", "k3", "b2", "q7", "c4"}
	for _, s := range engines {
		for i, id := range ids {
			if err := s.Put("models", id, Document{"id": id, "seq": i}); err != nil {
				t.Fatal(err)
			}
		}
	}

	wantIDs := []string{"a1", "b2", "c4", "k3", "m9", "q7", "z5"}
	for name, s := range engines {
		got, err := s.IDs("models")
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(wantIDs) {
			t.Fatalf("%s: IDs = %v, want %v", name, got, wantIDs)
		}
		docs, err := s.Find("models", nil)
		if err != nil {
			t.Fatal(err)
		}
		var order []string
		for _, d := range docs {
			order = append(order, fmt.Sprint(d["id"]))
		}
		if fmt.Sprint(order) != fmt.Sprint(wantIDs) {
			t.Fatalf("%s: Find order = %v, want %v", name, order, wantIDs)
		}
	}
}

func TestNewIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewID()
		if len(id) != 32 {
			t.Fatalf("id length = %d", len(id))
		}
		if seen[id] {
			t.Fatal("duplicate id")
		}
		seen[id] = true
	}
}

func TestMatches(t *testing.T) {
	doc := Document{"a": 1, "b": "x"}
	if !matches(doc, Document{"a": 1}) {
		t.Fatal("int match failed")
	}
	// JSON decoding turns ints into float64; matching must tolerate that.
	if !matches(doc, Document{"a": float64(1)}) {
		t.Fatal("int/float64 match failed")
	}
	if matches(doc, Document{"a": 2}) {
		t.Fatal("mismatch matched")
	}
	if matches(doc, Document{"missing": 1}) {
		t.Fatal("missing field matched")
	}
	if !matches(doc, nil) {
		t.Fatal("nil filter must match")
	}
}

func TestFindManyDocuments(t *testing.T) {
	s := NewMemStore()
	defer s.Close()
	for i := 0; i < 100; i++ {
		if _, err := s.Insert("c", Document{"bucket": fmt.Sprint(i % 10)}); err != nil {
			t.Fatal(err)
		}
	}
	docs, err := s.Find("c", Document{"bucket": "3"})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 10 {
		t.Fatalf("Find = %d docs, want 10", len(docs))
	}
}
