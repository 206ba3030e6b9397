package datamgr

import (
	"errors"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/docdb"
	"repro/internal/filestore"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/train"
)

func newManager(t *testing.T) (*Manager, *filestore.Store) {
	t.Helper()
	files, err := filestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return New(files), files
}

func testDS(t *testing.T, seed uint64) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.Spec{Name: "dm", Images: 12, H: 10, W: 10, Classes: 3, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestPublishResolveRoundTrip(t *testing.T) {
	m, _ := newManager(t)
	ds := testDS(t, 1)
	ref, dedup, err := m.Publish(ds)
	if err != nil {
		t.Fatal(err)
	}
	if dedup {
		t.Fatal("first publish cannot dedup")
	}
	if ref != ds.Hash() {
		t.Fatal("reference must be the content hash")
	}
	got, err := m.Resolve(ref)
	if err != nil {
		t.Fatal(err)
	}
	if got.Hash() != ds.Hash() {
		t.Fatal("resolve returned different content")
	}
}

func TestPublishDeduplicates(t *testing.T) {
	m, files := newManager(t)
	ds := testDS(t, 2)
	ref1, _, err := m.Publish(ds)
	if err != nil {
		t.Fatal(err)
	}
	ref2, dedup, err := m.Publish(ds)
	if err != nil {
		t.Fatal(err)
	}
	if !dedup || ref1 != ref2 {
		t.Fatalf("second publish: dedup=%v refs %s vs %s", dedup, ref1, ref2)
	}
	st, err := files.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Blobs != 1 {
		t.Fatalf("blobs = %d, want 1 (deduplicated)", st.Blobs)
	}
	mst := m.Stats()
	if mst.Datasets != 1 || mst.TotalRefs != 2 || mst.DedupSavedBytes <= 0 {
		t.Fatalf("stats = %+v", mst)
	}
}

func TestReleaseDeletesLastReference(t *testing.T) {
	m, files := newManager(t)
	ds := testDS(t, 3)
	ref, _, _ := m.Publish(ds)
	m.Publish(ds) // second ref
	if err := m.Release(ref); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Resolve(ref); err != nil {
		t.Fatal("dataset must survive while references remain")
	}
	if err := m.Release(ref); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Resolve(ref); !errors.Is(err, ErrUnknownRef) {
		t.Fatalf("err = %v, want ErrUnknownRef", err)
	}
	st, _ := files.Stats()
	if st.Blobs != 0 {
		t.Fatal("archive survived last release")
	}
	if err := m.Release(ref); !errors.Is(err, ErrUnknownRef) {
		t.Fatal("releasing unknown ref must fail")
	}
}

func TestList(t *testing.T) {
	m, _ := newManager(t)
	m.Publish(testDS(t, 5))
	m.Publish(testDS(t, 6))
	infos := m.List()
	if len(infos) != 2 {
		t.Fatalf("list = %v", infos)
	}
	for _, i := range infos {
		if i.Size <= 0 || i.RefCount != 1 || i.Name != "dm" {
			t.Fatalf("info = %+v", i)
		}
	}
}

func TestConcurrentPublishSameDataset(t *testing.T) {
	m, files := newManager(t)
	ds := testDS(t, 7)
	const publishers = 8
	var wg sync.WaitGroup
	refs := make([]string, publishers)
	for i := 0; i < publishers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ref, _, err := m.Publish(ds)
			if err != nil {
				t.Error(err)
				return
			}
			refs[i] = ref
		}(i)
	}
	wg.Wait()
	for _, r := range refs {
		if r != refs[0] {
			t.Fatal("publishers disagreed on the reference")
		}
	}
	st, _ := files.Stats()
	if st.Blobs != 1 {
		t.Fatalf("blobs = %d, want 1 after racy publishes", st.Blobs)
	}
	if m.Stats().TotalRefs != publishers {
		t.Fatalf("refs = %d, want %d", m.Stats().TotalRefs, publishers)
	}
}

// Integration: the provenance approach with an external dataset manager —
// the exact deployment Section 3.3 describes. The dataset is stored once
// for many provenance saves, and recovery resolves it through the manager.
func TestProvenanceWithDatasetManager(t *testing.T) {
	files, err := filestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	stores := core.Stores{Meta: docdb.NewMemStore(), Files: files}

	mgrFiles, err := filestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr := New(mgrFiles)

	mpa := core.NewProvenance(stores)
	mpa.ResolveDataset = mgr.Resolve

	spec := models.Spec{Arch: models.TinyCNNName, NumClasses: 3}
	net, err := models.New(models.TinyCNNName, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	u1, err := mpa.Save(core.SaveInfo{Spec: spec, Net: net, WithChecksums: true})
	if err != nil {
		t.Fatal(err)
	}

	ds := testDS(t, 9)
	lastID := u1.ID
	for i := 0; i < 3; i++ {
		ref, _, err := mgr.Publish(ds)
		if err != nil {
			t.Fatal(err)
		}
		loader, _ := train.NewDataLoader(ds, train.LoaderConfig{BatchSize: 4, OutH: 10, OutW: 10, Shuffle: true, Seed: uint64(i)})
		svc := train.NewImageClassifierTrainService(
			train.ServiceConfig{Epochs: 1, Seed: uint64(10 + i), Deterministic: true},
			loader, train.NewSGD(train.SGDConfig{LR: 0.02, Momentum: 0.9}))
		rec, err := core.NewProvenanceRecord(svc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rec.Train(net); err != nil {
			t.Fatal(err)
		}
		rec.SetExternalDatasetRef(ref)
		res, err := mpa.Save(core.SaveInfo{Spec: spec, Net: net, BaseID: lastID, WithChecksums: true, Provenance: rec})
		if err != nil {
			t.Fatal(err)
		}
		lastID = res.ID
	}

	// One archive despite three provenance saves.
	if st := mgr.Stats(); st.Datasets != 1 || st.TotalRefs != 3 {
		t.Fatalf("manager stats = %+v", st)
	}
	got, err := mpa.Recover(lastID, core.RecoverOptions{VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	if !nn.StateDictOf(got.Net).Equal(nn.StateDictOf(net)) {
		t.Fatal("recovered model differs through the dataset manager")
	}
}

// fullBlobs is a store that fails every SaveAs after taking the first KB
// of the blob, like a disk that fills up. It consumes the blob as a store
// does, through io.Copy.
type fullBlobs struct{ filestore.Blobs }

var errStoreFull = errors.New("store full")

func (fullBlobs) SaveAs(_ string, r io.Reader) (int64, string, error) {
	io.Copy(&fullDisk{room: 1 << 10}, r)
	return 0, "", errStoreFull
}

// fullDisk takes room bytes, then fails every write.
type fullDisk struct{ room int }

func (d *fullDisk) Write(p []byte) (int, error) {
	if len(p) > d.room {
		n := d.room
		d.room = 0
		return n, errStoreFull
	}
	d.room -= len(p)
	return len(p), nil
}

// A Publish whose store fails mid-archive returns the store's error and
// leaves no goroutine behind: the archive is written on the publishing
// goroutine, so a store that stops consuming cannot strand a writer.
func TestFailedPublishLeaksNoGoroutine(t *testing.T) {
	files, err := filestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := New(fullBlobs{files})
	ds := testDS(t, 9)
	before := runtime.NumGoroutine()
	if _, _, err := m.Publish(ds); !errors.Is(err, errStoreFull) {
		t.Fatalf("Publish error = %v, want the store's", err)
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the failed Publish, %d after", before, runtime.NumGoroutine())
		}
	}
	if len(m.List()) != 0 {
		t.Fatal("a failed Publish registered the dataset")
	}
}
