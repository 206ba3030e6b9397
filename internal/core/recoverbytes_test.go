package core

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/filestore"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/train"
)

// Recovery builds the architecture without initializing it and relies on
// the strict state-dict load to fill every tensor. These tests check that
// rather than assume it: every registered architecture, every approach,
// hash-verified against what was saved.

// oneStep is a one-batch deterministic training service over a dataset
// just large enough for it.
func oneStep(t *testing.T, classes int, seed uint64) *train.ImageClassifierTrainService {
	t.Helper()
	ds, err := dataset.Generate(dataset.Spec{Name: "one-step", Images: 2, H: 16, W: 16, Classes: classes, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	loader, err := train.NewDataLoader(ds, train.LoaderConfig{BatchSize: 2, OutH: 16, OutW: 16, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	return train.NewImageClassifierTrainService(
		train.ServiceConfig{Epochs: 1, BatchesPerEpoch: 1, Seed: seed + 2, Deterministic: true},
		loader, train.NewSGD(train.SGDConfig{LR: 0.01, Momentum: 0.9}))
}

func TestRecoverThroughUninitialisedNetAllArchitectures(t *testing.T) {
	if testing.Short() {
		t.Skip("saves and replays training on full architectures")
	}
	opts := RecoverOptions{VerifyChecksums: true}
	for _, arch := range models.Names() {
		arch := arch
		t.Run(arch, func(t *testing.T) {
			stores := testStores(t)
			spec := models.Spec{Arch: arch, NumClasses: 4}
			net, err := models.New(arch, spec.NumClasses, 17)
			if err != nil {
				t.Fatal(err)
			}
			check := func(name string, svc SaveService, id string) {
				t.Helper()
				want := nn.StateDictOf(net).Hash()
				got, err := svc.Recover(id, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if h := nn.StateDictOf(got.Net).Hash(); h != want {
					t.Fatalf("%s: recovered net hashes to %s, saved %s", name, h, want)
				}
			}
			save := func(name string, svc SaveService, info SaveInfo) string {
				t.Helper()
				info.Spec, info.Net, info.WithChecksums = spec, net, true
				res, err := svc.Save(info)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return res.ID
			}

			ba, pua, mpa, ad := NewBaseline(stores), NewParamUpdate(stores), NewProvenance(stores), NewAdaptive(stores)
			check("BA", ba, save("BA", ba, SaveInfo{}))
			root := save("PUA root", pua, SaveInfo{})
			check("PUA root", pua, root)
			check("adaptive over the snapshot", ad, root)

			// A fine-tuning step on the classifier, saved as a PUA link, as
			// an MPA link, and as whichever the adaptive heuristic picks: the
			// 1.5 kB dataset is smaller than every classifier but TinyCNN's,
			// so the evaluation architectures get a provenance link there
			// and TinyCNN a parameter update.
			models.FreezeForPartialUpdate(arch, net)
			rec, err := NewProvenanceRecord(oneStep(t, spec.NumClasses, 23))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := rec.Train(net); err != nil {
				t.Fatal(err)
			}
			link := SaveInfo{BaseID: root, Provenance: rec}
			check("PUA link", pua, save("PUA link", pua, link))
			check("MPA link", mpa, save("MPA link", mpa, link))
			adLink := save("adaptive link", ad, link)
			check("adaptive link", ad, adLink)
		})
	}
}

// A net that was only recovered holds no gradient tensors; the first
// backward pass brings them into being.
func TestRecoveredNetHasNoGradientsUntilBackward(t *testing.T) {
	stores := testStores(t)
	ba := NewBaseline(stores)
	res, err := ba.Save(SaveInfo{Spec: tinySpec(), Net: tinyNet(t, 5), WithChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ba.Recover(res.ID, RecoverOptions{VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range nn.NamedParams(got.Net) {
		if p.Param.Grad != nil {
			t.Fatalf("%s has a gradient tensor straight after recovery", p.Path)
		}
	}
	if _, err := tinyService(t, tinyDataset(t)).Train(got.Net); err != nil {
		t.Fatal(err)
	}
	for _, p := range nn.NamedParams(got.Net) {
		if p.Param.Grad == nil {
			t.Fatalf("%s has no gradient tensor after training", p.Path)
		}
	}
}

// One BA recovery allocates one model's worth of memory — the net's
// parameter tensors — not two (gradient tensors) or more. The state itself
// aliases the mapped blob, so the bound needs mmap.
func TestRecoverAllocatesOneStateSize(t *testing.T) {
	if !filestore.MmapEnabled() {
		t.Skip("without mmap the blob read is a second allocation of the state size")
	}
	stores := testStores(t)
	ba := NewBaseline(stores)
	spec := models.Spec{Arch: models.MobileNetV2Name, NumClasses: 1000}
	net, err := models.New(spec.Arch, spec.NumClasses, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ba.Save(SaveInfo{Spec: spec, Net: net, WithChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	stateBytes := 4 * uint64(nn.StateDictOf(net).NumScalars())

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	got, err := ba.Recover(res.ID, RecoverOptions{VerifyChecksums: true})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	assertEqualModels(t, net, got.Net)
	if alloc, limit := after.TotalAlloc-before.TotalAlloc, stateBytes*115/100; alloc > limit {
		t.Fatalf("one recovery allocated %d bytes for a %d-byte state (limit %d)", alloc, stateBytes, limit)
	}
}

// Adaptive recovery hashes the state once, at the requested model — or at
// its nearest checksummed ancestor when it was saved without a checksum —
// however long the chain, and that one check still catches corruption
// anywhere below it, because every link's state feeds the next.
func TestAdaptiveVerifiesOnceAndCatchesCorruptAncestor(t *testing.T) {
	stores := testStores(t)
	ids := buildPUAChain(t, stores, 61) // snapshot + two parameter-update links
	ad := NewAdaptive(stores)
	opts := RecoverOptions{VerifyChecksums: true}

	var rec *RecoveredModel
	ops := digestOpsDuring(func() {
		var err error
		if rec, err = ad.Recover(ids[2], opts); err != nil {
			t.Fatal(err)
		}
	})
	onePass := uint64(nn.StateDictOf(rec.Net).Len())
	if ops != onePass {
		t.Fatalf("recovering a 3-link chain computed %d tensor digests, want %d (one pass over the state)", ops, onePass)
	}

	// A leaf saved without checksums on top of the checksummed chain.
	w, _ := nn.StateDictOf(rec.Net).Get("fc.weight")
	w.Data()[2] += 0.5
	plain, err := NewParamUpdate(stores).Save(SaveInfo{Spec: tinySpec(), Net: rec.Net, BaseID: ids[2]})
	if err != nil {
		t.Fatal(err)
	}
	ops = digestOpsDuring(func() {
		if _, err := ad.Recover(plain.ID, opts); err != nil {
			t.Fatal(err)
		}
	})
	if ops != onePass {
		t.Fatalf("recovering an unchecksummed leaf computed %d tensor digests, want %d (its parent's check)", ops, onePass)
	}

	// Flip a bit inside the snapshot's first tensor (conv1.weight, whose
	// data spans bytes ~50–900 of the blob): the links above rewrite only
	// the fc layer, so the damage reaches the requested model's state.
	doc, err := getModelDoc(stores.Meta, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(stores.Files.(*filestore.Store).Root(), doc.ParamsFileRef)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[100] ^= 0x40
	if err := os.WriteFile(path, blob, 0o600); err != nil {
		t.Fatal(err)
	}
	for _, leaf := range []string{ids[2], plain.ID} {
		if _, err := ad.Recover(leaf, opts); err == nil {
			t.Fatalf("a corrupt snapshot below %s passed verification", leaf)
		}
	}
	if _, err := ad.Recover(ids[2], RecoverOptions{}); err != nil {
		t.Fatalf("without verification the chain still recovers: %v", err)
	}
}

// A seed the provenance document would round cannot be replayed; it is
// refused when the record is made, before any training or save.
func TestProvenanceRejectsUnreplayableSeed(t *testing.T) {
	ds := tinyDataset(t)
	for _, tc := range []struct {
		name                string
		serviceSeed, loader uint64
		ok                  bool
	}{
		{"largest exact", 1<<53 - 1, 1<<53 - 1, true},
		{"service seed 2^53", 1 << 53, 31, false},
		{"loader seed 2^63+1", 41, 1<<63 + 1, false},
	} {
		loader, err := train.NewDataLoader(ds, train.LoaderConfig{BatchSize: 4, OutH: 12, OutW: 12, Shuffle: true, Seed: tc.loader})
		if err != nil {
			t.Fatal(err)
		}
		svc := train.NewImageClassifierTrainService(
			train.ServiceConfig{Epochs: 1, BatchesPerEpoch: 1, Seed: tc.serviceSeed, Deterministic: true},
			loader, train.NewSGD(train.SGDConfig{LR: 0.05}))
		rec, err := NewProvenanceRecord(svc)
		if !tc.ok {
			if err == nil {
				t.Errorf("%s: accepted a seed the document cannot record", tc.name)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// The largest accepted seed really does survive the round trip.
		stores := testStores(t)
		mpa := NewProvenance(stores)
		net := tinyNet(t, 3)
		root, err := mpa.Save(SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rec.Train(net); err != nil {
			t.Fatal(err)
		}
		res, err := mpa.Save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: root.ID, WithChecksums: true, Provenance: rec})
		if err != nil {
			t.Fatal(err)
		}
		got, err := mpa.Recover(res.ID, RecoverOptions{VerifyChecksums: true})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		assertEqualModels(t, net, got.Net)
	}
}
