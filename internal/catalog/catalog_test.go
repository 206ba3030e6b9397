package catalog

import (
	"errors"
	"reflect"
	"sort"
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
	e, err := cat.Get(u1)
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != "snapshot" || e.BaseID != "" || e.StorageBytes <= 0 {
		t.Fatalf("u1 entry = %+v", e)
	}
	e, err = cat.Get(a)
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != "update" || e.BaseID != u1 {
		t.Fatalf("a entry = %+v", e)
	}
	if _, err := cat.Get("missing"); !errors.Is(err, core.ErrModelNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestProvenanceKindAndRefs(t *testing.T) {
	stores := testStores(t)
	mpa := core.NewProvenance(stores)
	net, err := models.New(models.TinyCNNName, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	u1, err := mpa.Save(core.SaveInfo{Spec: tinySpec(), Net: net})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.Generate(dataset.Spec{Name: "cat", Images: 8, H: 8, W: 8, Classes: 4, Seed: 3})
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
	res, err := mpa.Save(core.SaveInfo{Spec: tinySpec(), Net: net, BaseID: u1.ID, Provenance: rec})
	if err != nil {
		t.Fatal(err)
	}
	cat := New(stores)
	e, err := cat.Get(res.ID)
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != "provenance" {
		t.Fatalf("kind = %q", e.Kind)
	}
	// The dataset archive and optimizer state count toward storage.
	if e.StorageBytes < ds.Spec.SizeBytes()/2 {
		t.Fatalf("storage = %d, want at least the dataset archive", e.StorageBytes)
	}
}

func TestChainChildrenDescendantsRoots(t *testing.T) {
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
	desc, err := cat.Descendants(u1)
	if err != nil {
		t.Fatal(err)
	}
	if len(desc) != 2 {
		t.Fatalf("descendants = %v", desc)
	}
	roots, err := cat.Roots()
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 1 || roots[0] != u1 {
		t.Fatalf("roots = %v", roots)
	}
}

func TestChainDetectsCycle(t *testing.T) {
	stores := testStores(t)
	u1, a, _ := buildChain(t, stores)
	// Corrupt: make u1 point at a, forming a cycle.
	raw, err := stores.Meta.Get(core.ColModels, u1)
	if err != nil {
		t.Fatal(err)
	}
	raw["base_id"] = a
	if err := stores.Meta.Put(core.ColModels, u1, raw); err != nil {
		t.Fatal(err)
	}
	if _, err := New(stores).Chain(a); err == nil {
		t.Fatal("expected cycle error")
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
	if _, err := cat.Get(b); !errors.Is(err, core.ErrModelNotFound) {
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
		e, err := cat.Get(id)
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
	mpa := core.NewProvenance(stores)
	for i := 0; i < 3; i++ {
		buildChain(t, stores)
	}
	net, err := models.New(models.TinyCNNName, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	root, err := mpa.Save(core.SaveInfo{Spec: tinySpec(), Net: net})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.Generate(dataset.Spec{Name: "list", Images: 8, H: 8, W: 8, Classes: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	loader, _ := train.NewDataLoader(ds, train.LoaderConfig{BatchSize: 4, OutH: 8, OutW: 8, Shuffle: true, Seed: 4})
	rec, err := core.NewProvenanceRecord(train.NewImageClassifierTrainService(
		train.ServiceConfig{Epochs: 1, Seed: 5, Deterministic: true},
		loader, train.NewSGD(train.SGDConfig{LR: 0.01, Momentum: 0.9})))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Train(net); err != nil {
		t.Fatal(err)
	}
	if _, err := mpa.Save(core.SaveInfo{Spec: tinySpec(), Net: net, BaseID: root.ID, Provenance: rec}); err != nil {
		t.Fatal(err)
	}
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
		e, err := cat.Get(id)
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
