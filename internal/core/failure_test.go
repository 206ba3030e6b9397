package core

import (
	"errors"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/filestore"
	"repro/internal/models"
	"repro/internal/nn"
)

// Failure-injection tests: the save services must fail loudly, never return
// a wrong model, when stored state is corrupted or missing.

func TestBaselineRecoverWithMissingParamsFile(t *testing.T) {
	stores := testStores(t)
	ba := NewBaseline(stores)
	net := tinyNet(t, 30)
	res, err := ba.Save(SaveInfo{Spec: tinySpec(), Net: net})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := getModelDoc(stores.Meta, res.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := stores.Files.Delete(doc.ParamsFileRef); err != nil {
		t.Fatal(err)
	}
	if _, err := ba.Recover(res.ID, RecoverOptions{}); err == nil {
		t.Fatal("expected error for missing parameter file")
	}
}

func TestBaselineRecoverWithCorruptParamsFile(t *testing.T) {
	stores := testStores(t)
	ba := NewBaseline(stores)
	net := tinyNet(t, 31)
	res, err := ba.Save(SaveInfo{Spec: tinySpec(), Net: net})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := getModelDoc(stores.Meta, res.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := stores.Files.SaveAs(doc.ParamsFileRef, strings.NewReader("corrupted")); err != nil {
		t.Fatal(err)
	}
	if _, err := ba.Recover(res.ID, RecoverOptions{}); err == nil {
		t.Fatal("expected error for corrupt parameter file")
	}
}

func TestBaselineRecoverWithCorruptCodeFile(t *testing.T) {
	stores := testStores(t)
	ba := NewBaseline(stores)
	net := tinyNet(t, 32)
	res, err := ba.Save(SaveInfo{Spec: tinySpec(), Net: net})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := getModelDoc(stores.Meta, res.ID)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := stores.Files.SaveAs(doc.CodeFileRef, strings.NewReader(`{"arch":"no-such-arch"}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := ba.Recover(res.ID, RecoverOptions{}); err == nil {
		t.Fatal("expected error for unknown architecture in code file")
	}
}

func TestPUARecoverWithDeletedBase(t *testing.T) {
	stores := testStores(t)
	pua := NewParamUpdate(stores)
	net := tinyNet(t, 33)
	u1, err := pua.Save(SaveInfo{Spec: tinySpec(), Net: net})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := nn.StateDictOf(net).Get("fc.weight")
	w.Data()[0] += 1
	u3, err := pua.Save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: u1.ID})
	if err != nil {
		t.Fatal(err)
	}
	// Delete the base: the derived model becomes unrecoverable, unlike the
	// baseline where every model is self-contained.
	if err := stores.Meta.Delete(ColModels, u1.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := pua.Recover(u3.ID, RecoverOptions{}); err == nil {
		t.Fatal("expected error for deleted base model")
	}
}

func TestPUARecoverWithBrokenBaseReference(t *testing.T) {
	stores := testStores(t)
	pua := NewParamUpdate(stores)
	net := tinyNet(t, 34)
	u1, err := pua.Save(SaveInfo{Spec: tinySpec(), Net: net})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := nn.StateDictOf(net).Get("fc.weight")
	w.Data()[0] += 1
	u3, err := pua.Save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: u1.ID})
	if err != nil {
		t.Fatal(err)
	}
	// Clear the update's base reference: an update without a base is a
	// broken chain.
	raw, err := stores.Meta.Get(ColModels, u3.ID)
	if err != nil {
		t.Fatal(err)
	}
	delete(raw, "base_id")
	if err := stores.Meta.Put(ColModels, u3.ID, raw); err != nil {
		t.Fatal(err)
	}
	if _, err := pua.Recover(u3.ID, RecoverOptions{}); err == nil {
		t.Fatal("expected error for update without base reference")
	}
}

func TestMPARecoverWithMissingDataset(t *testing.T) {
	stores := testStores(t)
	mpa := NewProvenance(stores)
	ds := tinyDataset(t)
	net := tinyNet(t, 35)
	u1, err := mpa.Save(SaveInfo{Spec: tinySpec(), Net: net})
	if err != nil {
		t.Fatal(err)
	}
	rec := trainDerived(t, net, ds)
	res, err := mpa.Save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: u1.ID, Provenance: rec})
	if err != nil {
		t.Fatal(err)
	}
	// Delete the dataset archive.
	raw, err := stores.Meta.Get(ColModels, res.ID)
	if err != nil {
		t.Fatal(err)
	}
	svcRaw, err := stores.Meta.Get(ColServices, raw["service_doc_id"].(string))
	if err != nil {
		t.Fatal(err)
	}
	if err := stores.Files.Delete(svcRaw["dataset_ref"].(string)); err != nil {
		t.Fatal(err)
	}
	if _, err := mpa.Recover(res.ID, RecoverOptions{}); err == nil {
		t.Fatal("expected error for missing dataset archive")
	}
}

// Invariant: for any subset of changed layers, merging the update into the
// base reproduces the derived state exactly — the PUA recovery equation.
func TestMergeSubsetInvariant(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		base := nn.StateDictOf(tinyNet(t, 40+seed)).Clone()
		derived := base.Clone()
		// Mutate a pseudo-random subset of layers.
		layers := map[string]bool{}
		for i, e := range derived.Entries() {
			if (int(seed)+i)%3 == 0 {
				e.Tensor.Data()[0] += float32(seed + 1)
				layers[nn.LayerOf(e.Key)] = true
			}
		}
		changed, err := base.DiffLayers(derived)
		if err != nil {
			t.Fatal(err)
		}
		update := derived.SubsetByLayers(changed)
		merged := nn.Merge(base, update)
		if !merged.Equal(derived) {
			t.Fatalf("seed %d: merge(base, subset(diff)) != derived", seed)
		}
	}
}

// Saving concurrently from many goroutines against one shared store must be
// safe and keep every model independently recoverable.
func TestConcurrentSavesShareStores(t *testing.T) {
	stores := testStores(t)
	const savers = 8
	type out struct {
		id   string
		hash string
		err  error
	}
	ch := make(chan out, savers)
	for i := 0; i < savers; i++ {
		go func(i int) {
			ba := NewBaseline(stores)
			net, err := models.New(models.TinyCNNName, 4, uint64(100+i))
			if err != nil {
				ch <- out{err: err}
				return
			}
			res, err := ba.Save(SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true})
			ch <- out{id: res.ID, hash: nn.StateDictOf(net).Hash(), err: err}
		}(i)
	}
	ba := NewBaseline(stores)
	for i := 0; i < savers; i++ {
		o := <-ch
		if o.err != nil {
			t.Fatal(o.err)
		}
		rec, err := ba.Recover(o.id, RecoverOptions{VerifyChecksums: true})
		if err != nil {
			t.Fatal(err)
		}
		if nn.StateDictOf(rec.Net).Hash() != o.hash {
			t.Fatal("concurrent save recovered wrong model")
		}
	}
}

// fullBlobs is a store that fails every SaveAs after taking the first KB
// of the blob, like a disk that fills up.
type fullBlobs struct{ filestore.Blobs }

var errStoreFull = errors.New("store full")

func (fullBlobs) SaveAs(_ string, r io.Reader) (int64, string, error) {
	io.CopyN(io.Discard, r, 1<<10)
	return 0, "", errStoreFull
}

// A save whose store fails mid-blob returns the store's error and leaves
// no goroutine behind: every blob writes itself into the store on its
// wave's goroutine and every wave is joined before the save returns, so a
// store that stops consuming cannot strand a writer.
func TestFailedBlobSaveLeaksNoGoroutine(t *testing.T) {
	stores := testStores(t)
	net := tinyNet(t, 36)
	u1, err := NewProvenance(stores).Save(SaveInfo{Spec: tinySpec(), Net: net})
	if err != nil {
		t.Fatal(err)
	}
	rec := trainDerived(t, net, tinyDataset(t))
	full := stores
	full.Files = fullBlobs{stores.Files}
	saves := map[string]func() error{
		"MPA, archived dataset": func() error {
			_, err := NewProvenance(full).Save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: u1.ID, Provenance: rec})
			return err
		},
		"BA, parameters": func() error {
			_, err := NewBaseline(full).Save(SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true})
			return err
		},
	}
	for name, save := range saves {
		before := runtime.NumGoroutine()
		if err := save(); !errors.Is(err, errStoreFull) {
			t.Fatalf("%s: save error = %v, want the store's", name, err)
		}
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines before the failed save, %d after", name, before, runtime.NumGoroutine())
			}
		}
	}
}
