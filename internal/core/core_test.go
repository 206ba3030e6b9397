package core

import (
	"errors"
	"testing"

	"repro/internal/dataset"
	"repro/internal/docdb"
	"repro/internal/filestore"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/train"
)

func testStores(t *testing.T) Stores {
	t.Helper()
	files, err := filestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return Stores{Meta: docdb.NewMemStore(), Files: files}
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

func tinyDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.Spec{Name: "core-test", Images: 16, H: 12, W: 12, Classes: 4, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func tinyService(t *testing.T, ds *dataset.Dataset) *train.ImageClassifierTrainService {
	t.Helper()
	loader, err := train.NewDataLoader(ds, train.LoaderConfig{BatchSize: 4, OutH: 12, OutW: 12, Shuffle: true, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	return train.NewImageClassifierTrainService(
		train.ServiceConfig{Epochs: 2, BatchesPerEpoch: 2, Seed: 41, Deterministic: true},
		loader,
		train.NewSGD(train.SGDConfig{LR: 0.05, Momentum: 0.9}),
	)
}

// trainDerived mutates net with a short deterministic training run and
// returns the provenance record describing it.
func trainDerived(t *testing.T, net nn.Module, ds *dataset.Dataset) *ProvenanceRecord {
	t.Helper()
	svc := tinyService(t, ds)
	rec, err := NewProvenanceRecord(svc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Train(net); err != nil {
		t.Fatal(err)
	}
	return rec
}

func assertEqualModels(t *testing.T, want, got nn.Module) {
	t.Helper()
	if !nn.StateDictOf(want).Equal(nn.StateDictOf(got)) {
		t.Fatal("recovered model is not bit-identical to the saved model")
	}
}

func TestBaselineSaveRecoverEquality(t *testing.T) {
	stores := testStores(t)
	ba := NewBaseline(stores)
	if ba.Approach() != BaselineApproach {
		t.Fatal("wrong approach id")
	}
	net := tinyNet(t, 1)
	res, err := ba.Save(SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ID == "" || res.StorageBytes <= 0 || res.Duration <= 0 {
		t.Fatalf("save result %+v", res)
	}
	if res.StorageBytes != res.MetaBytes+res.FileBytes {
		t.Fatal("storage bytes don't add up")
	}
	rec, err := ba.Recover(res.ID, RecoverOptions{CheckEnv: true, VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	assertEqualModels(t, net, rec.Net)
	if rec.Spec != tinySpec() {
		t.Fatalf("spec = %+v", rec.Spec)
	}
	if rec.Timing.Load <= 0 || rec.Timing.Recover <= 0 {
		t.Fatalf("timing = %+v", rec.Timing)
	}
	if rec.Timing.Total() < rec.Timing.Load {
		t.Fatal("total < load")
	}
}

func TestBaselineRecoverUnknownID(t *testing.T) {
	ba := NewBaseline(testStores(t))
	_, err := ba.Recover("nope", RecoverOptions{})
	if !errors.Is(err, ErrModelNotFound) {
		t.Fatalf("err = %v, want ErrModelNotFound", err)
	}
}

func TestBaselineChecksumDetectsCorruption(t *testing.T) {
	stores := testStores(t)
	ba := NewBaseline(stores)
	net := tinyNet(t, 2)
	res, err := ba.Save(SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the stored checksum to simulate bad recovery.
	raw, err := stores.Meta.Get(ColModels, res.ID)
	if err != nil {
		t.Fatal(err)
	}
	raw["state_hash"] = "deadbeef"
	if err := stores.Meta.Put(ColModels, res.ID, raw); err != nil {
		t.Fatal(err)
	}
	if _, err := ba.Recover(res.ID, RecoverOptions{VerifyChecksums: true}); err == nil {
		t.Fatal("expected checksum mismatch")
	}
	// Without verification the corruption goes unnoticed (checksums are
	// optional, as in the paper).
	if _, err := ba.Recover(res.ID, RecoverOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestBaselineIndependenceOfBase(t *testing.T) {
	stores := testStores(t)
	ba := NewBaseline(stores)
	base := tinyNet(t, 3)
	baseRes, err := ba.Save(SaveInfo{Spec: tinySpec(), Net: base})
	if err != nil {
		t.Fatal(err)
	}
	derived := tinyNet(t, 4)
	dres, err := ba.Save(SaveInfo{Spec: tinySpec(), Net: derived, BaseID: baseRes.ID})
	if err != nil {
		t.Fatal(err)
	}
	// Deleting the base must not affect recovering the derived model: the
	// BA "explicitly exclude[s] loading documents holding base model
	// information".
	if err := stores.Meta.Delete(ColModels, baseRes.ID); err != nil {
		t.Fatal(err)
	}
	rec, err := ba.Recover(dres.ID, RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertEqualModels(t, derived, rec.Net)
	if rec.BaseID != baseRes.ID {
		t.Fatal("base reference lost")
	}
}

func TestBaselinePreservesTrainableFlags(t *testing.T) {
	stores := testStores(t)
	ba := NewBaseline(stores)
	net := tinyNet(t, 5)
	models.FreezeForPartialUpdate(models.TinyCNNName, net)
	res, err := ba.Save(SaveInfo{Spec: tinySpec(), Net: net})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ba.Recover(res.ID, RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := nn.NumTrainableParams(rec.Net); got != nn.NumTrainableParams(net) {
		t.Fatalf("trainable params = %d, want %d", got, nn.NumTrainableParams(net))
	}
}

func TestPUASaveRecoverChain(t *testing.T) {
	stores := testStores(t)
	pua := NewParamUpdate(stores)
	ds := tinyDataset(t)

	// U1: initial snapshot.
	net := tinyNet(t, 6)
	u1, err := pua.Save(SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true})
	if err != nil {
		t.Fatal(err)
	}

	// Partial freeze: only the classifier trains — the PUA's sweet spot.
	models.FreezeForPartialUpdate(models.TinyCNNName, net)

	// Three derived versions (like U3 iterations), each trained further.
	ids := []string{u1.ID}
	var sizes []int64
	for i := 0; i < 3; i++ {
		trainDerived(t, net, ds)
		res, err := pua.Save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: ids[len(ids)-1], WithChecksums: true})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, res.ID)
		sizes = append(sizes, res.StorageBytes)

		rec, err := pua.Recover(res.ID, RecoverOptions{VerifyChecksums: true})
		if err != nil {
			t.Fatal(err)
		}
		assertEqualModels(t, net, rec.Net)
	}

	// Updates must be much smaller than the initial snapshot: only the
	// classifier layer and the (batch-norm buffer) layers that changed.
	for _, s := range sizes {
		if s >= u1.StorageBytes {
			t.Fatalf("update (%d B) not smaller than snapshot (%d B)", s, u1.StorageBytes)
		}
	}

	// Intermediate versions stay recoverable.
	rec1, err := pua.Recover(ids[1], RecoverOptions{VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec1.BaseID != ids[0] {
		t.Fatal("wrong base id on intermediate recovery")
	}
}

func TestPUAFullUpdateEqualsSnapshotSize(t *testing.T) {
	stores := testStores(t)
	pua := NewParamUpdate(stores)
	net := tinyNet(t, 7)
	u1, err := pua.Save(SaveInfo{Spec: tinySpec(), Net: net})
	if err != nil {
		t.Fatal(err)
	}
	// Fully updated version: change every parameter.
	for _, p := range nn.NamedParams(net) {
		d := p.Param.Value.Data()
		for i := range d {
			d[i] += 0.001
		}
	}
	res, err := pua.Save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: u1.ID})
	if err != nil {
		t.Fatal(err)
	}
	// For fully updated versions the update carries nearly all parameters;
	// storage should be in the same ballpark as the snapshot (the paper:
	// "the parameter update is equivalent to a complete snapshot").
	if res.FileBytes < u1.FileBytes/2 {
		t.Fatalf("full update %d B suspiciously small vs snapshot %d B", res.FileBytes, u1.FileBytes)
	}
	rec, err := pua.Recover(res.ID, RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertEqualModels(t, net, rec.Net)
}

func TestPUAUnchangedModelSavesAlmostNothing(t *testing.T) {
	stores := testStores(t)
	pua := NewParamUpdate(stores)
	net := tinyNet(t, 8)
	u1, err := pua.Save(SaveInfo{Spec: tinySpec(), Net: net})
	if err != nil {
		t.Fatal(err)
	}
	res, err := pua.Save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: u1.ID})
	if err != nil {
		t.Fatal(err)
	}
	if res.FileBytes > 1024 {
		t.Fatalf("unchanged model stored %d file bytes", res.FileBytes)
	}
	rec, err := pua.Recover(res.ID, RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertEqualModels(t, net, rec.Net)
}

func TestPUARequiresHashesOnBase(t *testing.T) {
	stores := testStores(t)
	ba := NewBaseline(stores)
	pua := NewParamUpdate(stores)
	net := tinyNet(t, 9)
	// Base saved with plain BA: no layer-hash document.
	baseRes, err := ba.Save(SaveInfo{Spec: tinySpec(), Net: net})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pua.Save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: baseRes.ID}); err == nil {
		t.Fatal("expected error: base has no layer hashes")
	}
}

func TestPUAMerkleAndNaiveDiffAgree(t *testing.T) {
	stores := testStores(t)
	net := tinyNet(t, 10)
	sdBase := nn.StateDictOf(net).Clone()
	// Mutate one layer.
	w, _ := nn.StateDictOf(net).Get("fc.weight")
	w.Data()[0] += 1
	sdCur := nn.StateDictOf(net)

	merkleChanged, err := diffLayerHashes(sdBase.LayerHashes(), sdCur.LayerHashes(), true)
	if err != nil {
		t.Fatal(err)
	}
	naiveChanged, err := diffLayerHashes(sdBase.LayerHashes(), sdCur.LayerHashes(), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(merkleChanged) != 1 || merkleChanged[0] != "fc" {
		t.Fatalf("merkle changed = %v", merkleChanged)
	}
	if len(naiveChanged) != len(merkleChanged) || naiveChanged[0] != merkleChanged[0] {
		t.Fatalf("naive %v != merkle %v", naiveChanged, merkleChanged)
	}
	_ = stores
}

func TestMPASaveRecoverByRetraining(t *testing.T) {
	stores := testStores(t)
	mpa := NewProvenance(stores)
	ds := tinyDataset(t)

	// U1 snapshot.
	net := tinyNet(t, 11)
	u1, err := mpa.Save(SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true})
	if err != nil {
		t.Fatal(err)
	}

	// Derived: train, save provenance only.
	rec1 := trainDerived(t, net, ds)
	res, err := mpa.Save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: u1.ID, WithChecksums: true, Provenance: rec1})
	if err != nil {
		t.Fatal(err)
	}
	// MPA storage must be dominated by the dataset archive, not parameters.
	if res.FileBytes < ds.Spec.SizeBytes()/2 {
		t.Fatalf("provenance save stored %d B; dataset alone is %d B", res.FileBytes, ds.Spec.SizeBytes())
	}

	got, err := mpa.Recover(res.ID, RecoverOptions{VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	assertEqualModels(t, net, got.Net)

	// Second derived generation: recovery replays two trainings.
	rec2 := trainDerived(t, net, ds)
	res2, err := mpa.Save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: res.ID, WithChecksums: true, Provenance: rec2})
	if err != nil {
		t.Fatal(err)
	}
	got2, err := mpa.Recover(res2.ID, RecoverOptions{VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	assertEqualModels(t, net, got2.Net)
	if got2.Timing.Recover <= 0 || got2.Timing.Load <= 0 {
		t.Fatalf("timing = %+v", got2.Timing)
	}
}

func TestMPARequiresProvenanceForDerived(t *testing.T) {
	stores := testStores(t)
	mpa := NewProvenance(stores)
	net := tinyNet(t, 12)
	u1, err := mpa.Save(SaveInfo{Spec: tinySpec(), Net: net})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mpa.Save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: u1.ID}); err == nil {
		t.Fatal("expected error: no provenance record")
	}
	// Untrained record is also rejected.
	rec, err := NewProvenanceRecord(tinyService(t, tinyDataset(t)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mpa.Save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: u1.ID, Provenance: rec}); err == nil {
		t.Fatal("expected error: record not trained")
	}
}

func TestMPAChecksumCatchesTamperedProvenance(t *testing.T) {
	stores := testStores(t)
	mpa := NewProvenance(stores)
	ds := tinyDataset(t)
	net := tinyNet(t, 13)
	u1, err := mpa.Save(SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	rec := trainDerived(t, net, ds)
	res, err := mpa.Save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: u1.ID, WithChecksums: true, Provenance: rec})
	if err != nil {
		t.Fatal(err)
	}
	// Tamper with the stored training configuration: retraining then
	// produces a different model, which checksum verification must catch.
	raw, err := stores.Meta.Get(ColModels, res.ID)
	if err != nil {
		t.Fatal(err)
	}
	svcID := raw["service_doc_id"].(string)
	svcRaw, err := stores.Meta.Get(ColServices, svcID)
	if err != nil {
		t.Fatal(err)
	}
	var cfg map[string]any
	switch c := svcRaw["config"].(type) {
	case map[string]any:
		cfg = c
	case docdb.Document:
		cfg = map[string]any(c)
	default:
		t.Fatalf("unexpected config type %T", svcRaw["config"])
	}
	cfg["epochs"] = float64(1) // fewer epochs → different trained model
	svcRaw["config"] = cfg
	if err := stores.Meta.Put(ColServices, svcID, svcRaw); err != nil {
		t.Fatal(err)
	}
	if _, err := mpa.Recover(res.ID, RecoverOptions{VerifyChecksums: true}); err == nil {
		t.Fatal("expected checksum mismatch after tampering with provenance")
	}
}

func TestMPADatasetByReference(t *testing.T) {
	stores := testStores(t)
	mpa := NewProvenance(stores)
	ds := tinyDataset(t)
	mpa.ResolveDataset = func(ref string) (*dataset.Dataset, error) {
		if ref != "warehouse/core-test" {
			t.Fatalf("unexpected ref %q", ref)
		}
		return ds, nil
	}

	net := tinyNet(t, 14)
	u1, err := mpa.Save(SaveInfo{Spec: tinySpec(), Net: net})
	if err != nil {
		t.Fatal(err)
	}
	rec := trainDerived(t, net, ds)
	rec.SetExternalDatasetRef("warehouse/core-test")
	res, err := mpa.Save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: u1.ID, WithChecksums: true, Provenance: rec})
	if err != nil {
		t.Fatal(err)
	}
	// By-reference storage excludes the dataset entirely.
	if res.FileBytes >= ds.Spec.SizeBytes() {
		t.Fatalf("by-reference save stored %d B, dataset is %d B", res.FileBytes, ds.Spec.SizeBytes())
	}
	got, err := mpa.Recover(res.ID, RecoverOptions{VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	assertEqualModels(t, net, got.Net)

	// The same service archives the dataset of a record that carries no
	// reference.
	rec2 := trainDerived(t, net, ds)
	res2, err := mpa.Save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: res.ID, WithChecksums: true, Provenance: rec2})
	if err != nil {
		t.Fatal(err)
	}
	if res2.FileBytes < ds.Spec.SizeBytes()/2 {
		t.Fatalf("archiving save stored %d B, dataset is %d B", res2.FileBytes, ds.Spec.SizeBytes())
	}
	got, err = mpa.Recover(res2.ID, RecoverOptions{VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	assertEqualModels(t, net, got.Net)

	// Missing resolver is an error.
	mpa.ResolveDataset = nil
	if _, err := mpa.Recover(res.ID, RecoverOptions{}); err == nil {
		t.Fatal("expected error without resolver")
	}

}

func TestAdaptivePicksApproachAndRecoversMixedChain(t *testing.T) {
	stores := testStores(t)
	ad := NewAdaptive(stores)
	if ad.Approach() != "adaptive" {
		t.Fatal("approach id")
	}
	bigDS := tinyDataset(t) // 16*12*12*3 = 6912 B

	net := tinyNet(t, 15)
	u1, err := ad.Save(SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true})
	if err != nil {
		t.Fatal(err)
	}

	// Derived save with provenance whose dataset is larger than the
	// trainable parameters → heuristic picks PUA. TinyCNN has ~1.3k params
	// (5.4 kB); freeze to classifier only (~300 B) to make dataset clearly
	// bigger.
	models.FreezeForPartialUpdate(models.TinyCNNName, net)
	rec := trainDerived(t, net, bigDS)
	res1, err := ad.Save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: u1.ID, WithChecksums: true, Provenance: rec})
	if err != nil {
		t.Fatal(err)
	}
	doc1, err := getModelDoc(stores.Meta, res1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if doc1.Approach != ParamUpdateApproach {
		t.Fatalf("approach = %q, want PUA (dataset > trainable)", doc1.Approach)
	}

	// Now a tiny dataset (smaller than trainable bytes) → MPA.
	nn.SetTrainable(net, true)
	tinyDS, err := dataset.Generate(dataset.Spec{Name: "tiny", Images: 4, H: 8, W: 8, Classes: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	loader, _ := train.NewDataLoader(tinyDS, train.LoaderConfig{BatchSize: 2, OutH: 8, OutW: 8, Shuffle: true, Seed: 5})
	svc := train.NewImageClassifierTrainService(train.ServiceConfig{Epochs: 1, Seed: 6, Deterministic: true}, loader, train.NewSGD(train.SGDConfig{LR: 0.01}))
	rec2, err := NewProvenanceRecord(svc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec2.Train(net); err != nil {
		t.Fatal(err)
	}
	res2, err := ad.Save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: res1.ID, WithChecksums: true, Provenance: rec2})
	if err != nil {
		t.Fatal(err)
	}
	doc2, err := getModelDoc(stores.Meta, res2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if doc2.Approach != ProvenanceApproach {
		t.Fatalf("approach = %q, want MPA (dataset < trainable)", doc2.Approach)
	}

	// The mixed chain (snapshot → PUA link → MPA link) must recover.
	got, err := ad.Recover(res2.ID, RecoverOptions{VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	assertEqualModels(t, net, got.Net)
	if got.BaseID != res1.ID {
		t.Fatal("wrong base id")
	}

	// A PUA save on top of the MPA link works because the adaptive approach
	// stores layer hashes alongside MPA saves.
	w, _ := nn.StateDictOf(net).Get("fc.weight")
	w.Data()[0] += 0.5
	res3, err := ad.Save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: res2.ID, WithChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	got3, err := ad.Recover(res3.ID, RecoverOptions{VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	assertEqualModels(t, net, got3.Net)
}

func TestRecoverTimingAccumulates(t *testing.T) {
	var a, b RecoverTiming
	a.Load, a.Recover = 1, 2
	b.Load, b.CheckEnv, b.Verify = 10, 20, 30
	a.add(b)
	if a.Load != 11 || a.Recover != 2 || a.CheckEnv != 20 || a.Verify != 30 {
		t.Fatalf("add = %+v", a)
	}
	if a.Total() != 63 {
		t.Fatalf("total = %d", a.Total())
	}
}
