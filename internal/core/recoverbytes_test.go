package core

import (
	"crypto/sha256"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/docdb"
	"repro/internal/filestore"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
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
			// check recovers id uncached, then through a cache: the miss
			// that fills it and the hit that instantiates from it.
			check := func(name string, svc SaveService, id string) {
				t.Helper()
				want := nn.StateDictOf(net).Hash()
				recoverAs := func(how string, hit bool) {
					t.Helper()
					got, err := svc.Recover(id, opts)
					if err != nil {
						t.Fatalf("%s, %s: %v", name, how, err)
					}
					if h := nn.StateDictOf(got.Net).Hash(); h != want {
						t.Fatalf("%s, %s: recovered net hashes to %s, saved %s", name, how, h, want)
					}
					if (got.Links == 0) != hit {
						t.Fatalf("%s, %s: the recovery walked %d links", name, how, got.Links)
					}
				}
				recoverAs("uncached", false)
				svc.SetRecoveryCache(NewRecoveryCache(1 << 30))
				defer svc.SetRecoveryCache(nil)
				recoverAs("cache miss", false)
				recoverAs("cache hit", true)
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

// A recovered state that does not fit its architecture — a key missing, a
// shape changed, a key added — fails to instantiate, and no net is handed
// out; a stored model whose code names another class count than its
// parameters hold fails to recover the same way.
func TestInstantiateRejectsAStateThatDoesNotFit(t *testing.T) {
	stores := testStores(t)
	ba := NewBaseline(stores)
	net := tinyNet(t, 8)
	res, err := ba.Save(SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := ba.RecoverState(res.ID, RecoverOptions{VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	var layers []string
	for _, kh := range rs.State.LayerHashes() {
		if kh.Key != "fc" {
			layers = append(layers, kh.Key)
		}
	}
	missing := rs.State.SubsetByLayers(layers) // no fc.weight, no fc.bias
	missing.Set("a", tensor.Zeros(1))
	missing.Set("b", tensor.Zeros(1))
	reshaped := rs.State.Clone()
	reshaped.Set("fc.bias", tensor.Zeros(5))
	extra := rs.State.Clone()
	extra.Set("fc.extra", tensor.Zeros(1))
	for name, sd := range map[string]*nn.StateDict{"missing key": missing, "wrong shape": reshaped, "extra key": extra} {
		bad := *rs
		bad.State = sd
		if got, err := bad.Instantiate(); err == nil || got != nil {
			t.Fatalf("%s: Instantiate handed out a net (%v)", name, err)
		}
	}

	other := tinySpec()
	other.NumClasses++
	res, err = ba.Save(SaveInfo{Spec: other, Net: net})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ba.Recover(res.ID, RecoverOptions{}); err == nil || got != nil || !strings.Contains(err.Error(), "shape mismatch") {
		t.Fatalf("a %d-class state recovered into a %d-class net (%v)", tinySpec().NumClasses, other.NumClasses, err)
	}
}

// Every tensor of a recovered net owns its storage. Writing every one of
// them leaves the stored blobs and a cached state as they were: recovering
// again, cold or from the cache, gives the saved hash. TinyCNN's state is
// filled on the caller's goroutine, MobileNetV2's on the worker pool.
func TestRecoveredNetOwnsItsStorage(t *testing.T) {
	for _, spec := range []models.Spec{tinySpec(), {Arch: models.MobileNetV2Name, NumClasses: 10}} {
		t.Run(spec.Arch, func(t *testing.T) {
			stores := testStores(t)
			pua := NewParamUpdate(stores)
			net, err := models.New(spec.Arch, spec.NumClasses, 71)
			if err != nil {
				t.Fatal(err)
			}
			root, err := pua.Save(SaveInfo{Spec: spec, Net: net, WithChecksums: true})
			if err != nil {
				t.Fatal(err)
			}
			b, _ := nn.StateDictOf(net).Get(models.ClassifierPrefix(spec.Arch) + ".bias")
			b.Data()[1] += 0.5
			leaf, err := pua.Save(SaveInfo{Spec: spec, Net: net, BaseID: root.ID, WithChecksums: true})
			if err != nil {
				t.Fatal(err)
			}
			blobs := func() map[string]string {
				out := make(map[string]string)
				for _, id := range []string{root.ID, leaf.ID} {
					doc, err := getModelDoc(stores.Meta, id)
					if err != nil {
						t.Fatal(err)
					}
					b, err := stores.Files.ReadAll(doc.ParamsFileRef)
					if err != nil {
						t.Fatal(err)
					}
					out[id] = fmt.Sprintf("%x", sha256.Sum256(b))
				}
				return out
			}
			stored := blobs()
			want := nn.StateDictOf(net).Hash()
			opts := RecoverOptions{VerifyChecksums: true}
			for _, cached := range []bool{false, true} {
				svc := NewParamUpdate(stores)
				if cached {
					svc.SetRecoveryCache(NewRecoveryCache(0))
				}
				for round := 0; round < 2; round++ {
					got, err := svc.Recover(leaf.ID, opts)
					if err != nil {
						t.Fatal(err)
					}
					if h := nn.StateDictOf(got.Net).Hash(); h != want {
						t.Fatalf("cached=%v, round %d: recovery gives %s, want %s", cached, round, h, want)
					}
					if hit := got.Links == 0; hit != (cached && round == 1) {
						t.Fatalf("cached=%v, round %d: the recovery walked %d links", cached, round, got.Links)
					}
					for _, e := range nn.StateDictOf(got.Net).Entries() {
						d := e.Tensor.Data()
						for i := range d {
							d[i] = -d[i] - 1
						}
					}
				}
			}
			if got := blobs(); !maps.Equal(got, stored) {
				t.Fatal("writing recovered nets changed the stored parameter blobs")
			}
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

// A provenance seed of 2^60 and more survives every document store — the
// memory engine, a reopened disk engine, a client over the wire — so the
// training it names replays bit for bit. A float64 decode would break
// each of them: 2^60 re-encodes as 1152921504606847000, and 2^64-1 no
// longer fits a uint64.
func TestProvenanceLargeSeedReplays(t *testing.T) {
	ds := tinyDataset(t)
	for _, seeds := range [][2]uint64{{1 << 60, 1 << 60}, {1<<60 + 1, 1<<64 - 1}} {
		for _, engine := range []string{"memory", "disk", "wire"} {
			t.Run(fmt.Sprintf("%s/%d/%d", engine, seeds[0], seeds[1]), func(t *testing.T) {
				files, err := filestore.Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				meta, reopen := seedTestMeta(t, engine)
				loader, err := train.NewDataLoader(ds, train.LoaderConfig{BatchSize: 4, OutH: 12, OutW: 12, Shuffle: true, Seed: seeds[1]})
				if err != nil {
					t.Fatal(err)
				}
				svc := train.NewImageClassifierTrainService(
					train.ServiceConfig{Epochs: 1, BatchesPerEpoch: 2, Seed: seeds[0], Deterministic: true},
					loader, train.NewSGD(train.SGDConfig{LR: 0.05}))
				rec, err := NewProvenanceRecord(svc)
				if err != nil {
					t.Fatal(err)
				}
				mpa := NewProvenance(Stores{Meta: meta, Files: files})
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
				got, err := NewProvenance(Stores{Meta: reopen(), Files: files}).Recover(res.ID, RecoverOptions{VerifyChecksums: true})
				if err != nil {
					t.Fatal(err)
				}
				assertEqualModels(t, net, got.Net)
			})
		}
	}
}

// seedTestMeta returns a document store of the named engine and a function
// that hands back the store a recovery reads: the disk engine reopened over
// the same directory, the others unchanged.
func seedTestMeta(t *testing.T, engine string) (docdb.Store, func() docdb.Store) {
	t.Helper()
	switch engine {
	case "disk":
		dir := t.TempDir()
		d, err := docdb.OpenDisk(dir)
		if err != nil {
			t.Fatal(err)
		}
		return d, func() docdb.Store {
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			again, err := docdb.OpenDisk(dir)
			if err != nil {
				t.Fatal(err)
			}
			return again
		}
	case "wire":
		srv, err := docdb.NewServer(docdb.NewMemStore(), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		c, err := docdb.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c, func() docdb.Store { return c }
	}
	m := docdb.NewMemStore()
	return m, func() docdb.Store { return m }
}
