package core

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// The tests in this file hold a parameter update's early write — the
// guessed layers written before the diff — to the rule that it changes
// no stored byte: whether the guess held, named an extra layer, missed
// one or fell below earlyWriteFloor, the save stores the diff's update.

// wideSpec is a TinyCNN whose classifier alone serializes to just over
// earlyWriteFloor (16 × 16384 weights and 16384 biases), so an update
// guessed to hold it is written early; every other layer is far below.
func wideSpec() models.Spec { return models.Spec{Arch: models.TinyCNNName, NumClasses: 1 << 14} }

func wideNet(t *testing.T, seed uint64) nn.Module {
	t.Helper()
	m, err := models.New(models.TinyCNNName, wideSpec().NumClasses, seed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// tensorOf returns the net's tensor under key.
func tensorOf(t *testing.T, net nn.Module, key string) *tensor.Tensor {
	t.Helper()
	x, ok := nn.StateDictOf(net).Get(key)
	if !ok {
		t.Fatalf("no tensor %q", key)
	}
	return x
}

// rewritesDuring returns how many updates fn wrote twice.
func rewritesDuring(fn func()) int64 {
	before := mUpdateRewrites.Value()
	fn()
	return mUpdateRewrites.Value() - before
}

// checkStoredUpdate asserts that the update saved as id is the one the
// diff against base names, written as a plain serialization of those
// layers, with a frames hash that audits, and that it recovers verified to
// the net's fresh hash.
func checkStoredUpdate(t *testing.T, stores Stores, id string, base *nn.StateDict, net nn.Module) {
	t.Helper()
	doc, err := getModelDoc(stores.Meta, id)
	if err != nil {
		t.Fatal(err)
	}
	want, err := nn.StateDictOf(net).DiffLayers(base)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(doc.UpdatedLayers, want) {
		t.Fatalf("stored updated layers %v, the net differs from its base in %v", doc.UpdatedLayers, want)
	}
	blob, err := stores.Files.ReadAll(doc.ParamsFileRef)
	if err != nil {
		t.Fatal(err)
	}
	var wantBlob bytes.Buffer
	if _, err := nn.StateDictOf(net).SubsetByLayers(want).WriteTo(&wantBlob); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, wantBlob.Bytes()) {
		t.Fatalf("stored update is %d bytes that are not the serialization of %v (%d bytes)", len(blob), want, wantBlob.Len())
	}
	if audit, err := nn.AuditFramesHash(blob); err != nil || audit != doc.ParamsFramesHash {
		t.Fatalf("recorded frames hash %s, the stored bytes audit to %s (err %v)", doc.ParamsFramesHash, audit, err)
	}
	rec, err := NewParamUpdate(stores).Recover(id, RecoverOptions{VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, fresh := nn.StateDictOf(rec.Net).Hash(), nn.StateDictOf(net).Hash(); got != fresh {
		t.Fatalf("recovered model hashes to %s, the net to %s", got, fresh)
	}
}

// Each case saves a wide net as a PUA snapshot, edits it, and saves the
// derived update, counting rewrites; the update must be the diff's, and
// its artifacts those of the stamp-free twin, whose every tensor is
// unstamped and whose update is therefore never guessed right.
func TestEarlyWriteStoresTheDiffsUpdate(t *testing.T) {
	cases := []struct {
		name string
		// edit makes the derived model; stamped is another saved net.
		edit     func(t *testing.T, net, stamped nn.Module)
		rewrites int64
	}{
		{"guess right", func(t *testing.T, net, _ nn.Module) {
			models.FreezeForPartialUpdate(models.TinyCNNName, net)
			tensorOf(t, net, "fc.weight").Data()[3] += 0.5
		}, 0},
		{"guess names an extra layer", func(t *testing.T, net, _ nn.Module) {
			tensorOf(t, net, "conv1.weight").Data() // taken, left as it was
			tensorOf(t, net, "fc.bias").Data()[0] -= 0.25
		}, 1},
		{"guess misses a layer", func(t *testing.T, net, stamped nn.Module) {
			models.FreezeForPartialUpdate(models.TinyCNNName, net)
			tensorOf(t, net, "fc.weight").Data()[7] += 0.5
			// Frozen, and its copied stamp is current: not guessed.
			tensorOf(t, net, "conv2.weight").CopyFrom(tensorOf(t, stamped, "conv2.weight"))
		}, 1},
		{"guess below the floor", func(t *testing.T, net, stamped nn.Module) {
			nn.FreezeAllExcept(net, "conv1")
			tensorOf(t, net, "conv1.weight").Data()[0] += 0.5
			// A miss, but the guess is too small to be written early.
			tensorOf(t, net, "conv2.weight").CopyFrom(tensorOf(t, stamped, "conv2.weight"))
		}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stores, twins := testStores(t), testStores(t)
			pua, twinPUA := NewParamUpdate(stores), NewParamUpdate(twins)
			net, stamped := wideNet(t, 3), wideNet(t, 4)
			if _, err := pua.Save(SaveInfo{Spec: wideSpec(), Net: stamped}); err != nil {
				t.Fatal(err)
			}
			base, err := pua.Save(SaveInfo{Spec: wideSpec(), Net: net, WithChecksums: true})
			if err != nil {
				t.Fatal(err)
			}
			twinBase, err := twinPUA.Save(SaveInfo{Spec: wideSpec(), Net: stampFreeTwin(t, wideSpec(), net), WithChecksums: true})
			if err != nil {
				t.Fatal(err)
			}
			baseState := nn.StateDictOf(net).Clone()
			tc.edit(t, net, stamped)

			var res SaveResult
			if n := rewritesDuring(func() {
				res, err = pua.Save(SaveInfo{Spec: wideSpec(), Net: net, BaseID: base.ID, WithChecksums: true})
			}); err != nil {
				t.Fatal(err)
			} else if n != tc.rewrites {
				t.Errorf("the save wrote its update %d extra times, want %d", n, tc.rewrites)
			}
			checkStoredUpdate(t, stores, res.ID, baseState, net)

			twinRes, err := twinPUA.Save(SaveInfo{Spec: wideSpec(), Net: stampFreeTwin(t, wideSpec(), net), BaseID: twinBase.ID, WithChecksums: true})
			if err != nil {
				t.Fatal(err)
			}
			got, err := CaptureArtifacts(stores, res.ID)
			if err != nil {
				t.Fatal(err)
			}
			want, err := CaptureArtifacts(twins, twinRes.ID)
			if err != nil {
				t.Fatal(err)
			}
			if d := got.Diff(want); d != "" {
				t.Fatalf("stored %s differs from the stamp-free twin's", d)
			}
		})
	}
}

// The benchmark's delta chain — a stamped root state loaded, the
// classifier perturbed, saved, three times over — guesses every update
// right; a frozen layer replaced behind the stamps forces one rewrite.
func TestUpdateRewritesCountsOnlyMisses(t *testing.T) {
	spec := models.Spec{Arch: models.MobileNetV2Name, NumClasses: 1000}
	net, err := models.New(spec.Arch, spec.NumClasses, 5)
	if err != nil {
		t.Fatal(err)
	}
	models.FreezeForPartialUpdate(spec.Arch, net)
	stores := testStores(t)
	pua := NewParamUpdate(stores)
	root, err := pua.Save(SaveInfo{Spec: spec, Net: net})
	if err != nil {
		t.Fatal(err)
	}
	rootState := nn.StateDictOf(net).Clone()
	if err := rootState.LoadInto(net); err != nil {
		t.Fatal(err)
	}

	rng := tensor.NewRNG(9)
	base := root.ID
	saveChain := func(links int, edit func()) int64 {
		t.Helper()
		return rewritesDuring(func() {
			for range links {
				for _, p := range nn.NamedParams(net) {
					if p.Param.Trainable {
						d := p.Param.Value.Data()
						for i := rng.Intn(16); i < len(d); i += 16 {
							d[i] += (rng.Float32() - 0.5) * 1e-3
						}
					}
				}
				edit()
				res, err := pua.Save(SaveInfo{Spec: spec, Net: net, BaseID: base})
				if err != nil {
					t.Fatal(err)
				}
				base = res.ID
			}
		})
	}
	if n := saveChain(3, func() {}); n != 0 {
		t.Errorf("a benchmark-shaped chain rewrote %d updates, want 0", n)
	}

	// A stamped tensor of other content, copied with its stamp into a
	// frozen layer: the diff names the layer, the guess does not.
	alt := tensorOf(t, net, "features.0.conv.weight").Clone()
	alt.Data()[0] += 1
	tensor.DigestAllStamped([]*tensor.Tensor{alt})
	if n := saveChain(1, func() { tensorOf(t, net, "features.0.conv.weight").CopyFrom(alt) }); n != 1 {
		t.Errorf("a save that missed a layer rewrote %d updates, want 1", n)
	}
}
