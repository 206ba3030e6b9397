package crashtest

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/docdb"
	"repro/internal/filestore"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/train"
)

// newStores builds a fresh store pair (in-memory metadata, on-disk blobs)
// with no crash hook armed.
func newStores(t *testing.T) core.Stores {
	t.Helper()
	files, err := filestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return core.Stores{Meta: docdb.NewMemStore(), Files: files}
}

func tinySpec() models.Spec { return models.Spec{Arch: models.TinyCNNName, NumClasses: 4} }

func tinyNet(t *testing.T, seed uint64) nn.Module {
	t.Helper()
	m, err := models.New(models.TinyCNNName, 4, seed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// perturb deterministically changes one layer's parameters so a derived
// PUA save has a non-empty update.
func perturb(net nn.Module) {
	d := nn.StateDictOf(net).Entries()[0].Tensor.Data()
	for i := range d {
		d[i] += 0.5
	}
}

func tinyDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.Spec{Name: "crash-test", Images: 16, H: 12, W: 12, Classes: 4, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// trainDerived mutates net with a short deterministic training run and
// returns the provenance record describing it.
func trainDerived(t *testing.T, net nn.Module, ds *dataset.Dataset) *core.ProvenanceRecord {
	t.Helper()
	loader, err := train.NewDataLoader(ds, train.LoaderConfig{BatchSize: 4, OutH: 12, OutW: 12, Shuffle: true, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	svc := train.NewImageClassifierTrainService(
		train.ServiceConfig{Epochs: 2, BatchesPerEpoch: 2, Seed: 41, Deterministic: true},
		loader,
		train.NewSGD(train.SGDConfig{LR: 0.05, Momentum: 0.9}),
	)
	rec, err := core.NewProvenanceRecord(svc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Train(net); err != nil {
		t.Fatal(err)
	}
	return rec
}

// collections every save may touch, including the write-ahead records.
var allCollections = []string{
	core.ColModels, core.ColEnvironments, core.ColLayerHashes, core.ColServices, core.ColStaging,
}

// fingerprint captures every byte the stores hold: each document marshaled
// under "doc/<collection>/<id>", each blob's content hash under
// "blob/<id>". Two equal fingerprints mean byte-identical stores.
func fingerprint(t *testing.T, stores core.Stores) map[string]string {
	t.Helper()
	fp := make(map[string]string)
	for _, col := range allCollections {
		ids, err := stores.Meta.IDs(col)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			doc, err := stores.Meta.Get(col, id)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			fp["doc/"+col+"/"+id] = string(b)
		}
	}
	blobs, err := stores.Files.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range blobs {
		h, err := stores.Files.Hash(id)
		if err != nil {
			t.Fatal(err)
		}
		fp["blob/"+id] = h
	}
	return fp
}

// sameFingerprint asserts got is byte-identical to want, naming every
// leaked, missing, or changed entry.
func sameFingerprint(t *testing.T, want, got map[string]string) {
	t.Helper()
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Errorf("store lost %s", k)
		} else if g != w {
			t.Errorf("store changed %s", k)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("store leaked %s", k)
		}
	}
}

// crashOn returns a hook that dies at the named crash point.
func crashOn(name string) core.CrashFn {
	return func(point string) error {
		if point == name {
			return fmt.Errorf("%w (point %q)", core.ErrInjectedCrash, point)
		}
		return nil
	}
}

// newModelIDs returns the ids in ColModels that the pre-crash fingerprint
// did not contain.
func newModelIDs(t *testing.T, stores core.Stores, before map[string]string) []string {
	t.Helper()
	ids, err := stores.Meta.IDs(core.ColModels)
	if err != nil {
		t.Fatal(err)
	}
	var fresh []string
	for _, id := range ids {
		if _, ok := before["doc/"+core.ColModels+"/"+id]; !ok {
			fresh = append(fresh, id)
		}
	}
	return fresh
}

// checkAfterCrash runs the GC pass after an injected crash and asserts the
// all-or-nothing invariant: either no new model exists and the store is
// byte-identical to its pre-save state, or exactly one new model exists,
// was never rolled back, and recovers bit-identically (checksums verified).
func checkAfterCrash(t *testing.T, stores core.Stores, before map[string]string, want nn.Module, recoverFn func(id string) nn.Module) {
	t.Helper()
	rep, err := core.RecoverOrphans(stores)
	if err != nil {
		t.Fatalf("RecoverOrphans: %v", err)
	}
	if rep.Scanned != 1 {
		t.Fatalf("expected exactly one staging record after the crash, scanned %d", rep.Scanned)
	}
	if ids, err := stores.Meta.IDs(core.ColStaging); err != nil || len(ids) != 0 {
		t.Fatalf("staging records survived GC: %v (err %v)", ids, err)
	}
	switch fresh := newModelIDs(t, stores, before); len(fresh) {
	case 0:
		if rep.RolledBack != 1 {
			t.Fatalf("uncommitted save not rolled back: %s", rep)
		}
		sameFingerprint(t, before, fingerprint(t, stores))
	case 1:
		// The root document landed: the save committed and must never be
		// rolled back, only its stale staging record dropped.
		if rep.Completed != 1 || rep.BlobsReclaimed != 0 || rep.DocsReclaimed != 0 {
			t.Fatalf("completed save was rolled back: %s", rep)
		}
		got := recoverFn(fresh[0])
		if !nn.StateDictOf(got).Equal(nn.StateDictOf(want)) {
			t.Fatal("committed save did not recover bit-identically after GC")
		}
	default:
		t.Fatalf("one save produced %d model documents", len(fresh))
	}
}
