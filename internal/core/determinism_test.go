package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/merkle"
)

// The regression tests in this file protect the representation invariant
// the whole paper rests on: saving the same model twice — through fresh
// stores, in different iteration orders, in different processes — must
// produce byte-identical stored artifacts and identical Merkle roots.
// PUA's layer diffing (Sec. 4.2) and MPA's checksum verification (Sec. 3.3)
// silently degrade to full saves or spurious mismatches the moment any
// byte of the representation becomes run-dependent. The maprange-determinism
// analyzer in cmd/mmlint guards the code paths; these tests guard the
// observable output.

// savedArtifacts is a captured save (core.CaptureArtifacts) plus the
// Merkle root over its stored layer hashes.
type savedArtifacts struct {
	Artifacts
	merkle string // Merkle root over the stored layer hashes
}

func captureArtifacts(t *testing.T, stores Stores, id string) savedArtifacts {
	t.Helper()
	art, err := CaptureArtifacts(stores, id)
	if err != nil {
		t.Fatal(err)
	}
	sa := savedArtifacts{Artifacts: art}

	raw, err := stores.Meta.Get(ColModels, id)
	if err != nil {
		t.Fatal(err)
	}
	var doc modelDoc
	if err := mapToDoc(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.HashDocID != "" {
		layerHashes, err := loadLayerHashes(stores.Meta, doc.HashDocID)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := merkle.Build(toLeaves(layerHashes))
		if err != nil {
			t.Fatal(err)
		}
		sa.merkle = tree.Root()
	}
	return sa
}

// mustMarshal renders v as JSON; encoding/json sorts map keys, so equal
// documents marshal to equal bytes regardless of map iteration order.
func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func assertSameArtifacts(t *testing.T, label string, a, b savedArtifacts) {
	t.Helper()
	check := func(field string, x, y []byte) {
		t.Helper()
		if !bytes.Equal(x, y) {
			t.Errorf("%s: stored %s differ between identical saves:\nrun 1: %s\nrun 2: %s", label, field, x, y)
		}
	}
	check("root document", a.Root, b.Root)
	check("environment document", a.Env, b.Env)
	check("layer-hash document", a.LayerHashes, b.LayerHashes)
	check("parameter bytes", a.Params, b.Params)
	check("model-code bytes", a.Code, b.Code)
	if a.merkle != b.merkle {
		t.Errorf("%s: Merkle roots differ between identical saves: %s vs %s", label, a.merkle, b.merkle)
	}
}

// TestBaselineSaveIsByteDeterministic saves the same model twice through
// the baseline approach into independent stores and requires every stored
// byte to match.
func TestBaselineSaveIsByteDeterministic(t *testing.T) {
	var runs []savedArtifacts
	for i := 0; i < 2; i++ {
		stores := testStores(t)
		res, err := NewBaseline(stores).Save(SaveInfo{Spec: tinySpec(), Net: tinyNet(t, 9), WithChecksums: true})
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, captureArtifacts(t, stores, res.ID))
	}
	assertSameArtifacts(t, "baseline", runs[0], runs[1])
}

// TestPUASaveIsByteDeterministic drives the full PUA path twice — snapshot,
// deterministic derived training, parameter-update save — and requires the
// stored update, hash documents, and Merkle roots to match across runs.
func TestPUASaveIsByteDeterministic(t *testing.T) {
	type puaRun struct {
		snapshot savedArtifacts
		update   savedArtifacts
		changed  []byte
	}
	var runs []puaRun
	for i := 0; i < 2; i++ {
		stores := testStores(t)
		pua := NewParamUpdate(stores)
		ds := tinyDataset(t)
		net := tinyNet(t, 9)

		base, err := pua.Save(SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true})
		if err != nil {
			t.Fatal(err)
		}
		trainDerived(t, net, ds)
		derived, err := pua.Save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: base.ID, WithChecksums: true})
		if err != nil {
			t.Fatal(err)
		}

		raw, err := stores.Meta.Get(ColModels, derived.ID)
		if err != nil {
			t.Fatal(err)
		}
		var doc modelDoc
		if err := mapToDoc(raw, &doc); err != nil {
			t.Fatal(err)
		}
		runs = append(runs, puaRun{
			snapshot: captureArtifacts(t, stores, base.ID),
			update:   captureArtifacts(t, stores, derived.ID),
			changed:  mustMarshal(t, doc.UpdatedLayers),
		})
	}
	assertSameArtifacts(t, "pua snapshot", runs[0].snapshot, runs[1].snapshot)
	assertSameArtifacts(t, "pua update", runs[0].update, runs[1].update)
	if !bytes.Equal(runs[0].changed, runs[1].changed) {
		t.Errorf("changed-layer sets differ between identical saves: %s vs %s", runs[0].changed, runs[1].changed)
	}
}

// TestSaveArtifactsIdenticalAcrossWorkerCounts re-runs both save paths under
// worker counts {1, 2, 8} and requires every stored byte — documents, params,
// code, and Merkle roots — to match the serial run. The parallel digest pool
// assembles results in entry order, so concurrency must never leak into the
// representation.
func TestSaveArtifactsIdenticalAcrossWorkerCounts(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	type workerRun struct {
		snapshot savedArtifacts
		update   savedArtifacts
	}
	runFor := func(w int) workerRun {
		runtime.GOMAXPROCS(w)
		stores := testStores(t)
		pua := NewParamUpdate(stores)
		ds := tinyDataset(t)
		net := tinyNet(t, 9)

		base, err := pua.Save(SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true})
		if err != nil {
			t.Fatal(err)
		}
		trainDerived(t, net, ds)
		derived, err := pua.Save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: base.ID, WithChecksums: true})
		if err != nil {
			t.Fatal(err)
		}
		return workerRun{
			snapshot: captureArtifacts(t, stores, base.ID),
			update:   captureArtifacts(t, stores, derived.ID),
		}
	}

	serial := runFor(1)
	for _, w := range []int{2, 8} {
		parallel := runFor(w)
		assertSameArtifacts(t, fmt.Sprintf("snapshot workers=%d", w), serial.snapshot, parallel.snapshot)
		assertSameArtifacts(t, fmt.Sprintf("update workers=%d", w), serial.update, parallel.update)
	}
}

// TestBaselineAndPUASnapshotsAgree saves the same model through BA and PUA
// and requires the parts both approaches store — parameters and model code
// — to be byte-identical: the representation is a property of the model,
// not of the approach that persisted it.
func TestBaselineAndPUASnapshotsAgree(t *testing.T) {
	baStores, puaStores := testStores(t), testStores(t)
	baRes, err := NewBaseline(baStores).Save(SaveInfo{Spec: tinySpec(), Net: tinyNet(t, 9), WithChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	puaRes, err := NewParamUpdate(puaStores).Save(SaveInfo{Spec: tinySpec(), Net: tinyNet(t, 9), WithChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	ba := captureArtifacts(t, baStores, baRes.ID)
	pua := captureArtifacts(t, puaStores, puaRes.ID)
	if !bytes.Equal(ba.Params, pua.Params) {
		t.Error("BA and PUA store different parameter bytes for the same model")
	}
	if !bytes.Equal(ba.Code, pua.Code) {
		t.Error("BA and PUA store different model-code bytes for the same model")
	}
}
