package catalog

import (
	"errors"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/docdb"
	"repro/internal/filestore"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/train"
)

func testStores(t *testing.T) core.Stores {
	t.Helper()
	files, err := filestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return core.Stores{Meta: docdb.NewMemStore(), Files: files}
}

func tinySpec() models.Spec { return models.Spec{Arch: models.TinyCNNName, NumClasses: 4} }

// buildChain saves U1 → A → B with the PUA and returns the ids.
func buildChain(t *testing.T, stores core.Stores) (u1, a, b string) {
	t.Helper()
	pua := core.NewParamUpdate(stores)
	net, err := models.New(models.TinyCNNName, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := pua.Save(core.SaveInfo{Spec: tinySpec(), Net: net})
	if err != nil {
		t.Fatal(err)
	}
	bump := func() {
		w, _ := nn.StateDictOf(net).Get("fc.weight")
		w.Data()[0] += 1
	}
	bump()
	ra, err := pua.Save(core.SaveInfo{Spec: tinySpec(), Net: net, BaseID: r1.ID})
	if err != nil {
		t.Fatal(err)
	}
	bump()
	rb, err := pua.Save(core.SaveInfo{Spec: tinySpec(), Net: net, BaseID: ra.ID})
	if err != nil {
		t.Fatal(err)
	}
	return r1.ID, ra.ID, rb.ID
}

// get reads one model's catalog entry the sequential way: one document
// read, then its blobs sized — the per-model oracle List must agree with.
func get(c *Catalog, id string) (Entry, error) {
	m, err := core.ReadModel(c.stores.Meta, id)
	return c.entry(m), err
}

func TestListGetAndKinds(t *testing.T) {
	stores := testStores(t)
	u1, a, _ := buildChain(t, stores)
	cat := New(stores)

	entries, err := cat.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("entries = %d, want 3", len(entries))
	}
	e, err := get(cat, u1)
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != "snapshot" || e.BaseID != "" || e.StorageBytes <= 0 {
		t.Fatalf("u1 entry = %+v", e)
	}
	e, err = get(cat, a)
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != "update" || e.BaseID != u1 {
		t.Fatalf("a entry = %+v", e)
	}
	if _, err := get(cat, "missing"); !errors.Is(err, core.ErrModelNotFound) {
		t.Fatalf("err = %v", err)
	}
}

// saveProvenance saves a snapshot and a provenance link trained from it
// with the MPA, and returns their ids and the link's training dataset.
func saveProvenance(t *testing.T, stores core.Stores, seed uint64) (root, derived string, ds *dataset.Dataset) {
	t.Helper()
	mpa := core.NewProvenance(stores)
	net, err := models.New(models.TinyCNNName, 4, seed)
	if err != nil {
		t.Fatal(err)
	}
	u1, err := mpa.Save(core.SaveInfo{Spec: tinySpec(), Net: net})
	if err != nil {
		t.Fatal(err)
	}
	ds, err = dataset.Generate(dataset.Spec{Name: "cat", Images: 8, H: 8, W: 8, Classes: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	loader, _ := train.NewDataLoader(ds, train.LoaderConfig{BatchSize: 4, OutH: 8, OutW: 8, Shuffle: true, Seed: 4})
	svc := train.NewImageClassifierTrainService(
		train.ServiceConfig{Epochs: 1, Seed: 5, Deterministic: true},
		loader, train.NewSGD(train.SGDConfig{LR: 0.01, Momentum: 0.9}))
	rec, err := core.NewProvenanceRecord(svc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Train(net); err != nil {
		t.Fatal(err)
	}
	res, err := mpa.Save(core.SaveInfo{Spec: tinySpec(), Net: net, BaseID: u1.ID, WithChecksums: true, Provenance: rec})
	if err != nil {
		t.Fatal(err)
	}
	return u1.ID, res.ID, ds
}

func TestProvenanceKindAndRefs(t *testing.T) {
	stores := testStores(t)
	_, id, ds := saveProvenance(t, stores, 2)
	e, err := get(New(stores), id)
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != "provenance" {
		t.Fatalf("kind = %q", e.Kind)
	}
	// The dataset archive counts toward storage.
	if e.StorageBytes < ds.Spec.SizeBytes()/2 {
		t.Fatalf("storage = %d, want at least the dataset archive", e.StorageBytes)
	}
}

func TestChainAndChildren(t *testing.T) {
	stores := testStores(t)
	u1, a, b := buildChain(t, stores)
	cat := New(stores)

	chain, err := cat.Chain(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 3 || chain[0].ID != b || chain[1].ID != a || chain[2].ID != u1 {
		t.Fatalf("chain = %+v", chain)
	}
	kids, err := cat.Children(u1)
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 1 || kids[0] != a {
		t.Fatalf("children = %v", kids)
	}
}

// The catalog and a recovery read lineage through one reader, so a cycle
// of base references fails both the same way.
func TestChainDetectsCycle(t *testing.T) {
	stores := testStores(t)
	_, a, b := buildChain(t, stores)
	// Corrupt: make a point at b, forming a cycle of two updates.
	raw, err := stores.Meta.Get(core.ColModels, a)
	if err != nil {
		t.Fatal(err)
	}
	raw["base_id"] = b
	if err := stores.Meta.Put(core.ColModels, a, raw); err != nil {
		t.Fatal(err)
	}
	_, chainErr := New(stores).Chain(b)
	_, recoverErr := core.NewParamUpdate(stores).Recover(b, core.RecoverOptions{})
	if chainErr == nil || recoverErr == nil || chainErr.Error() != recoverErr.Error() || !strings.Contains(chainErr.Error(), "cycle at "+b) {
		t.Fatalf("Chain: %v; Recover: %v; want the same cycle error at %s", chainErr, recoverErr, b)
	}
}

func TestDeleteRefusesBasesAndReclaims(t *testing.T) {
	stores := testStores(t)
	u1, a, b := buildChain(t, stores)
	cat := New(stores)

	if err := cat.Delete(u1, false); !errors.Is(err, ErrInUse) {
		t.Fatalf("deleting base: err = %v, want ErrInUse", err)
	}
	if err := cat.Delete(a, false); !errors.Is(err, ErrInUse) {
		t.Fatalf("deleting middle: err = %v, want ErrInUse", err)
	}
	// Leaf deletion works and removes its artifacts.
	before, _ := stores.Files.Stats()
	if err := cat.Delete(b, false); err != nil {
		t.Fatal(err)
	}
	after, _ := stores.Files.Stats()
	if after.Blobs >= before.Blobs {
		t.Fatal("delete did not remove artifacts")
	}
	if _, err := get(cat, b); !errors.Is(err, core.ErrModelNotFound) {
		t.Fatal("model document survived delete")
	}
	// Now the chain can be torn down leaf-first.
	if err := cat.Delete(a, false); err != nil {
		t.Fatal(err)
	}
	if err := cat.Delete(u1, false); err != nil {
		t.Fatal(err)
	}
	entries, _ := cat.List()
	if len(entries) != 0 {
		t.Fatalf("entries left: %v", entries)
	}
	st, err := stores.Files.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Blobs != 0 {
		t.Fatalf("%d blobs left after full teardown", st.Blobs)
	}
	if err := cat.Delete(u1, false); !errors.Is(err, core.ErrModelNotFound) {
		t.Fatalf("double delete: %v", err)
	}
}

// failGet is a document store whose Get of one model document fails, as a
// network client out of retries does.
type failGet struct {
	docdb.Store
	id string
}

var errUnreachable = errors.New("injected: document unreachable")

func (f failGet) Get(collection, id string) (docdb.Document, error) {
	if collection == core.ColModels && id == f.id {
		return nil, errUnreachable
	}
	return f.Store.Get(collection, id)
}

// A child the scan cannot read may derive from the base, so the scan fails
// with the read's error, and a Delete of the base fails with it and keeps
// the base the child recovers through.
func TestDeleteKeepsBaseWhenAChildIsUnreadable(t *testing.T) {
	stores := testStores(t)
	u1, a, b := buildChain(t, stores)
	broken := stores
	broken.Meta = failGet{Store: stores.Meta, id: a}
	cat := New(broken)

	if kids, err := cat.Children(u1); !errors.Is(err, errUnreachable) {
		t.Fatalf("Children over an unreadable child = %v, %v, want the read's error", kids, err)
	}
	if err := cat.Delete(u1, false); !errors.Is(err, errUnreachable) {
		t.Fatalf("Delete of the base = %v, want the read's error", err)
	}
	if _, err := stores.Meta.Get(core.ColModels, u1); err != nil {
		t.Fatalf("base document gone after a failed Delete: %v", err)
	}
	if _, err := core.NewParamUpdate(stores).Recover(b, core.RecoverOptions{VerifyChecksums: true}); err != nil {
		t.Fatalf("descendant no longer recovers: %v", err)
	}
}

func TestForceDeleteAndGarbageCollection(t *testing.T) {
	stores := testStores(t)
	u1, _, b := buildChain(t, stores)
	cat := New(stores)

	// Force-delete the root: descendants keep their documents, but the
	// root's blobs are gone and the derived models reference a missing
	// base.
	if err := cat.Delete(u1, true); err != nil {
		t.Fatal(err)
	}
	pua := core.NewParamUpdate(stores)
	if _, err := pua.Recover(b, core.RecoverOptions{}); err == nil {
		t.Fatal("recovering after force delete should fail")
	}

	// Plant an orphan blob; GC must reclaim it without touching live ones.
	orphanID, _, _, err := stores.Files.SaveBytes(make([]byte, 1024))
	if err != nil {
		t.Fatal(err)
	}
	st, err := cat.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Unreachable == 0 {
		t.Fatal("stats missed the orphan blob")
	}
	blobs, bytes, err := cat.CollectGarbage()
	if err != nil {
		t.Fatal(err)
	}
	if blobs == 0 || bytes < 1024 {
		t.Fatalf("gc reclaimed %d blobs / %d bytes", blobs, bytes)
	}
	if stores.Files.Exists(orphanID) {
		t.Fatal("orphan survived gc")
	}
	// Live blobs of the remaining models survived.
	for _, id := range []string{b} {
		e, err := get(cat, id)
		if err != nil {
			t.Fatal(err)
		}
		if e.StorageBytes == 0 {
			t.Fatal("gc deleted a live blob")
		}
	}
}

func TestStatsCounts(t *testing.T) {
	stores := testStores(t)
	buildChain(t, stores)
	st, err := New(stores).Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Models != 3 || st.Snapshots != 1 || st.Updates != 2 || st.TotalBytes <= 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// List reads its models concurrently; what it returns must be exactly the
// one-at-a-time listing: every model, in identifier order, with the same
// kind, base and storage — provenance links' dataset archives included.
func TestListMatchesSequentialGets(t *testing.T) {
	stores := testStores(t)
	pua := core.NewParamUpdate(stores)
	for i := 0; i < 3; i++ {
		buildChain(t, stores)
	}
	saveProvenance(t, stores, 7)
	for i := 0; i < 2*listWorkers; i++ {
		m, err := models.New(models.TinyCNNName, 4, uint64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pua.Save(core.SaveInfo{Spec: tinySpec(), Net: m}); err != nil {
			t.Fatal(err)
		}
	}

	cat := New(stores)
	ids, err := stores.Meta.IDs(core.ColModels)
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(ids)
	want := make([]Entry, 0, len(ids))
	for _, id := range ids {
		e, err := get(cat, id)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, e)
	}
	got, err := cat.List()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("List differs from sequential Gets:\n got %v\nwant %v", got, want)
	}
	kinds := map[string]int{}
	for _, e := range got {
		kinds[e.Kind]++
	}
	if kinds["snapshot"] != 4+2*listWorkers || kinds["update"] != 6 || kinds["provenance"] != 1 {
		t.Fatalf("listed kinds = %v", kinds)
	}
}

// A save paused before its commit has written its blobs, and only its
// staging record names them. The collector leaves them to RecoverOrphans,
// and the save commits a model that recovers.
func TestGarbageCollectionSparesASaveInFlight(t *testing.T) {
	stores := testStores(t)
	paused, release := make(chan struct{}), make(chan struct{})
	saving := stores
	saving.Crash = func(point string) error {
		if point == "commit.before" {
			close(paused)
			<-release
		}
		return nil
	}
	net, err := models.New(models.TinyCNNName, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		id  string
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := core.NewBaseline(saving).Save(core.SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true})
		done <- result{res.ID, err}
	}()
	select {
	case <-paused:
	case saved := <-done:
		t.Fatalf("save returned before its commit: %v", saved.err)
	}
	blobs, _, gcErr := New(stores).CollectGarbage()
	close(release)
	saved := <-done
	if gcErr != nil {
		t.Fatal(gcErr)
	}
	if saved.err != nil {
		t.Fatal(saved.err)
	}
	if blobs != 0 {
		t.Errorf("collected %d blob(s) of a save in flight", blobs)
	}
	if _, err := core.NewBaseline(stores).Recover(saved.id, core.RecoverOptions{VerifyChecksums: true}); err != nil {
		t.Fatalf("saved model does not recover: %v", err)
	}
}

// failServices is a document store whose every Get of a service document
// fails, as a network client out of retries does.
type failServices struct{ docdb.Store }

func (f failServices) Get(collection, id string) (docdb.Document, error) {
	if collection == core.ColServices {
		return nil, errUnreachable
	}
	return f.Store.Get(collection, id)
}

// A provenance model's dataset archive is named only by its service
// document. When that cannot be read, what the model owns is unknown: the
// collector and Delete fail with the read's error and touch nothing.
func TestUnreadableServiceDocumentKeepsProvenanceBlobs(t *testing.T) {
	stores := testStores(t)
	_, id, _ := saveProvenance(t, stores, 12)
	broken := stores
	broken.Meta = failServices{stores.Meta}
	cat := New(broken)
	before, err := stores.Files.Stats()
	if err != nil {
		t.Fatal(err)
	}

	if blobs, _, err := cat.CollectGarbage(); !errors.Is(err, errUnreachable) || blobs != 0 {
		t.Fatalf("CollectGarbage = %d blob(s), %v; want none and the read's error", blobs, err)
	}
	if err := cat.Delete(id, false); !errors.Is(err, errUnreachable) {
		t.Fatalf("Delete = %v, want the read's error", err)
	}
	if _, err := cat.List(); !errors.Is(err, errUnreachable) {
		t.Fatalf("List = %v, want the read's error", err)
	}
	after, err := stores.Files.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if after.Blobs != before.Blobs {
		t.Fatalf("%d blobs before, %d after", before.Blobs, after.Blobs)
	}
	if _, err := core.NewProvenance(stores).Recover(id, core.RecoverOptions{VerifyChecksums: true}); err != nil {
		t.Fatalf("model no longer recovers: %v", err)
	}
}

// failRootDelete is a document store whose Delete of one model's root
// document fails, leaving the store as a process killed between a
// deletion's side documents and its root document leaves it.
type failRootDelete struct {
	docdb.Store
	id string
}

func (f failRootDelete) Delete(collection, id string) error {
	if collection == core.ColModels && id == f.id {
		return errUnreachable
	}
	return f.Store.Delete(collection, id)
}

// A Delete cut short before the root document leaves a provenance model
// whose service document is gone, and with it the blobs that document
// named. The scans still read the model, the collector spares the rest of
// the store, and a second Delete finishes the first.
func TestInterruptedDeleteOfAProvenanceModelFinishes(t *testing.T) {
	stores := testStores(t)
	root, id, _ := saveProvenance(t, stores, 14)
	cut := stores
	cut.Meta = failRootDelete{Store: stores.Meta, id: id}
	if err := New(cut).Delete(id, false); !errors.Is(err, errUnreachable) {
		t.Fatalf("interrupted Delete = %v, want the injected error", err)
	}

	cat := New(stores)
	if entries, err := cat.List(); err != nil || len(entries) != 2 {
		t.Fatalf("List = %d entries, %v; want both models", len(entries), err)
	}
	if st, err := cat.Stats(); err != nil || st.Models != 2 {
		t.Fatalf("Stats = %+v, %v", st, err)
	}
	if _, _, err := cat.CollectGarbage(); err != nil {
		t.Fatalf("CollectGarbage: %v", err)
	}
	if err := cat.Delete(id, false); err != nil {
		t.Fatalf("second Delete: %v", err)
	}
	if _, err := get(cat, id); !errors.Is(err, core.ErrModelNotFound) {
		t.Fatalf("Get after the second Delete = %v, want ErrModelNotFound", err)
	}
	m, err := core.ReadModel(stores.Meta, root)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := stores.Files.Stats(); err != nil || st.Blobs != len(m.Owns.Blobs) {
		t.Fatalf("%d blobs left, %v; want the root's %d", st.Blobs, err, len(m.Owns.Blobs))
	}
	if _, err := core.NewProvenance(stores).Recover(root, core.RecoverOptions{VerifyChecksums: true}); err != nil {
		t.Fatalf("root no longer recovers: %v", err)
	}
}

// deleteOnRead is a document store that deletes a model the first time a
// scan reads one of its documents, as a concurrent Delete would: a model
// at its root document, or a provenance model at its service document,
// which a deletion removes before the root document.
type deleteOnRead struct {
	docdb.Store
	stores  core.Stores       // the undecorated stores the deletion runs on
	victims map[string]string // "collection/id" read -> model deleted
	once    sync.Map
}

func (d *deleteOnRead) Get(collection, id string) (docdb.Document, error) {
	if model, ok := d.victims[collection+"/"+id]; ok {
		if _, done := d.once.LoadOrStore(model, true); !done {
			if err := New(d.stores).Delete(model, true); err != nil {
				return nil, err
			}
		}
	}
	return d.Store.Get(collection, id)
}

// Every scan skips a model deleted between its listing and its read.
func TestScansSkipAModelDeletedMidScan(t *testing.T) {
	for _, tc := range []struct {
		name string
		want int // five models less the two deleted; root has one child
		scan func(c *Catalog, root string) (int, error)
	}{
		{"List", 3, func(c *Catalog, _ string) (int, error) { e, err := c.List(); return len(e), err }},
		{"Children", 1, func(c *Catalog, root string) (int, error) { kids, err := c.Children(root); return len(kids), err }},
		{"Stats", 3, func(c *Catalog, _ string) (int, error) { st, err := c.Stats(); return st.Models, err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stores := testStores(t)
			root, _, leaf := buildChain(t, stores)
			_, prov, _ := saveProvenance(t, stores, 13)
			m, err := core.ReadModel(stores.Meta, prov)
			if err != nil {
				t.Fatal(err)
			}
			var svcID string
			for _, d := range m.Owns.Docs {
				if d.Collection == core.ColServices {
					svcID = d.ID
				}
			}
			racing := stores
			racing.Meta = &deleteOnRead{Store: stores.Meta, stores: stores, victims: map[string]string{
				core.ColModels + "/" + leaf:    leaf,
				core.ColServices + "/" + svcID: prov,
			}}
			got, err := tc.scan(New(racing), root)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("%s counted %d, want %d", tc.name, got, tc.want)
			}
		})
	}
}
