package core

import (
	"bytes"
	"runtime"
	"slices"
	"testing"

	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/train"
)

// The tests in this file hold the save path's tensor stamps to the rule
// that makes them safe: a save re-hashes exactly the tensors written since
// their last save, and what it stores is what a save that reuses nothing
// stores.

// twinned saves every model twice: once as given, and once through a
// stamp-free twin — a new net of the same spec loaded from the state's
// serialized bytes, which carries no stamp — into stores of its own. Both
// saves must store the same bytes, and the stored hashes must be fresh
// hashes of the net.
type twinned struct {
	t             *testing.T
	stores, twins Stores
	svc, twinSvc  SaveService
	twinOf        map[string]string // primary id → twin id
}

func newTwinned(t *testing.T, newSvc func(Stores) SaveService) *twinned {
	tw := &twinned{t: t, stores: testStores(t), twins: testStores(t), twinOf: map[string]string{"": ""}}
	tw.svc, tw.twinSvc = newSvc(tw.stores), newSvc(tw.twins)
	return tw
}

// stampFreeTwin builds the stamp-free twin of net.
func stampFreeTwin(t *testing.T, spec models.Spec, net nn.Module) nn.Module {
	t.Helper()
	var buf bytes.Buffer
	if _, err := nn.StateDictOf(net).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	state, err := nn.ReadStateDictBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	m, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := state.LoadInto(m); err != nil {
		t.Fatal(err)
	}
	ps, twinPs := nn.NamedParams(net), nn.NamedParams(m)
	for i := range ps {
		twinPs[i].Param.Trainable = ps[i].Param.Trainable
	}
	return m
}

func (tw *twinned) save(info SaveInfo) SaveResult {
	t := tw.t
	t.Helper()
	twinInfo := info
	twinInfo.Net = stampFreeTwin(t, info.Spec, info.Net)
	twinInfo.BaseID = tw.twinOf[info.BaseID]
	res, err := tw.svc.Save(info)
	if err != nil {
		t.Fatal(err)
	}
	twinRes, err := tw.twinSvc.Save(twinInfo)
	if err != nil {
		t.Fatal(err)
	}
	tw.twinOf[res.ID] = twinRes.ID

	got, err := CaptureArtifacts(tw.stores, res.ID)
	if err != nil {
		t.Fatal(err)
	}
	want, err := CaptureArtifacts(tw.twins, twinRes.ID)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.Diff(want); d != "" {
		t.Fatalf("save %d: stored %s differs from the stamp-free twin's", len(tw.twinOf)-1, d)
	}
	doc, err := getModelDoc(tw.stores.Meta, res.ID)
	if err != nil {
		t.Fatal(err)
	}
	sd := nn.StateDictOf(info.Net) // no save cache: a fresh pass
	if info.WithChecksums && doc.StateHash != sd.Hash() {
		t.Fatalf("save %d: stored state hash is not the net's fresh hash", len(tw.twinOf)-1)
	}
	if doc.HashDocID != "" {
		stored, err := loadLayerHashes(tw.stores.Meta, doc.HashDocID)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(stored, sd.LayerHashes()) {
			t.Fatalf("save %d: stored layer hashes are not the net's fresh layer hashes", len(tw.twinOf)-1)
		}
	}
	return res
}

// poke writes one value of the named tensor through Data().
func poke(t *testing.T, net nn.Module, key string, delta float32) {
	t.Helper()
	x, ok := nn.StateDictOf(net).Get(key)
	if !ok {
		t.Fatalf("no tensor %q", key)
	}
	x.Data()[0] += delta
}

// The determinism suite's saves — a BA snapshot, a PUA snapshot and a
// trained derived update, for worker counts 1, 2 and 8 — plus derived
// saves that reuse stamps, each paired with its stamp-free twin.
func TestStampFreeTwinDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, w := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(w)
		ba := newTwinned(t, func(s Stores) SaveService { return NewBaseline(s) })
		net := tinyNet(t, 9)
		ba.save(SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true})
		poke(t, net, "conv1.weight", 0.25)
		ba.save(SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true})

		pua := newTwinned(t, func(s Stores) SaveService { return NewParamUpdate(s) })
		net = tinyNet(t, 9)
		base := pua.save(SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true})
		trainDerived(t, net, tinyDataset(t))
		derived := pua.save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: base.ID, WithChecksums: true})
		poke(t, net, "fc.bias", 0.5)
		derived = pua.save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: derived.ID, WithChecksums: true})
		pua.save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: derived.ID})
	}
}

// The walker suite's mixed chain — snapshot, trained update, provenance,
// poked update — through the adaptive policy, each save paired with its
// stamp-free twin, and every link recovered by every service to the net's
// fresh hash at save.
func TestStampFreeTwinMixedChain(t *testing.T) {
	tw := newTwinned(t, func(s Stores) SaveService { return NewAdaptive(s) })
	net := tinyNet(t, 15)
	var ids, hashes []string
	save := func(base string, rec *ProvenanceRecord) {
		t.Helper()
		res := tw.save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: base, WithChecksums: true, Provenance: rec})
		ids, hashes = append(ids, res.ID), append(hashes, nn.StateDictOf(net).Hash())
	}
	save("", nil)
	models.FreezeForPartialUpdate(models.TinyCNNName, net)
	save(ids[0], trainDerived(t, net, tinyDataset(t)))
	nn.SetTrainable(net, true)
	save(ids[1], trainDerived(t, net, tinyDataset(t)))
	poke(t, net, "fc.weight", 0.5)
	save(ids[2], nil)
	poke(t, net, "bn2.running_var", 0.125)
	save(ids[3], nil)

	opts := RecoverOptions{VerifyChecksums: true}
	for _, svc := range allServices(tw.stores) {
		for i, id := range ids {
			rec, err := svc.Recover(id, opts)
			if err != nil {
				t.Fatalf("%s.Recover(link %d): %v", svc.Approach(), i, err)
			}
			if got := nn.StateDictOf(rec.Net).Hash(); got != hashes[i] {
				t.Errorf("%s.Recover(link %d) hashes to %s, saved %s", svc.Approach(), i, got, hashes[i])
			}
		}
	}
}

// Exact count: a PUA chain save digests exactly the tensors written since
// the last save — by Data(), a train-mode BatchNorm forward (which takes
// its parameters and statistics through Data()), an SGD step, or a
// load that carried no stamp — and nothing else.
func TestPUAChainSaveDigestsOnlyWrittenTensors(t *testing.T) {
	stores := testStores(t)
	pua := NewParamUpdate(stores)
	net := tinyNet(t, 9)
	n := nn.StateDictOf(net).Len()
	var last string
	saveCounting := func(label string, want int) {
		t.Helper()
		var res SaveResult
		var err error
		ops := digestOpsDuring(func() {
			res, err = pua.Save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: last, WithChecksums: true})
		})
		if err != nil {
			t.Fatal(err)
		}
		if ops != uint64(want) {
			t.Errorf("%s: the save computed %d tensor digests, want %d", label, ops, want)
		}
		last = res.ID
	}
	saveCounting("snapshot", n)
	saved := nn.StateDictOf(net).Clone()

	saveCounting("nothing written", 0)
	poke(t, net, "fc.weight", 1)
	saveCounting("one Data() write", 1)

	bn := batchNorm(t, net, "bn1")
	bn.Forward(nn.Train(nil), tensor.Uniform(tensor.NewRNG(1), -1, 1, 2, bn.C, 3, 3))
	saveCounting("a train-mode BatchNorm forward", 4)

	models.FreezeForPartialUpdate(models.TinyCNNName, net)
	nn.ZeroGrads(net)
	for _, p := range nn.NamedParams(net) {
		p.Param.Grad.Fill(0.5)
	}
	train.NewSGD(train.SGDConfig{LR: 0.1}).Step(net)
	saveCounting("an SGD step on the classifier", 2)

	if err := saved.LoadInto(net); err != nil {
		t.Fatal(err)
	}
	saveCounting("a load of a stamped state", 0)
	if err := nn.StateDictOf(stampFreeTwin(t, tinySpec(), net)).LoadInto(net); err != nil {
		t.Fatal(err)
	}
	saveCounting("a load of a decoded state", n)
}

// batchNorm returns the BatchNorm2d layer at path.
func batchNorm(t *testing.T, net nn.Module, path string) *nn.BatchNorm2d {
	t.Helper()
	var bn *nn.BatchNorm2d
	nn.Visit(net, func(p string, m nn.Module) {
		if b, ok := m.(*nn.BatchNorm2d); ok && p == path {
			bn = b
		}
	})
	if bn == nil {
		t.Fatalf("no BatchNorm2d at %q", path)
	}
	return bn
}

// FuzzSaveAfterWrites interleaves PUA chain saves of a TinyCNN with every
// kind of write: Data() pokes, SGD steps, train-mode BatchNorm forwards,
// Clone and LoadInto, a write through a clone's tensor, the six in-package
// mutators, and a write through a Reshape view. After each save the
// changed layers it stored must be exactly the layers that differ from its
// base, the stored update their plain serialization — whether the layers
// the stamps guessed were written early and held, or the update was
// written again, or not early at all — and a verified recovery must hash
// to the net's fresh hash. The net is wideSpec's, so an update that holds
// the classifier is written early.
func FuzzSaveAfterWrites(f *testing.F) {
	f.Add([]byte{1, 0, 0})
	f.Add([]byte{13, 2, 0, 3, 0, 4, 1, 5, 0})
	f.Add([]byte{16, 29, 0, 6, 7, 0, 8, 20, 9, 21, 0, 10, 11, 0})
	f.Add([]byte{4, 14, 17, 0, 5, 0, 18, 30, 42, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 24 {
			script = script[:24]
		}
		stores := testStores(t)
		pua := NewParamUpdate(stores)
		net := wideNet(t, 9)
		rng := tensor.NewRNG(uint64(len(script)))
		var lastID string
		var base *nn.StateDict
		snaps := []*nn.StateDict{nn.StateDictOf(net).Clone()}
		save := func() {
			res, err := pua.Save(SaveInfo{Spec: wideSpec(), Net: net, BaseID: lastID, WithChecksums: true})
			if err != nil {
				t.Fatal(err)
			}
			if base != nil {
				checkStoredUpdate(t, stores, res.ID, base, net)
			} else if rec, err := pua.Recover(res.ID, RecoverOptions{VerifyChecksums: true}); err != nil {
				t.Fatal(err)
			} else if got, fresh := nn.StateDictOf(rec.Net).Hash(), nn.StateDictOf(net).Hash(); got != fresh {
				t.Fatalf("script %v: recovered model hashes to %s, the net to %s", script, got, fresh)
			}
			lastID, base = res.ID, nn.StateDictOf(net).Clone()
		}
		for _, b := range script {
			entries := nn.StateDictOf(net).Entries()
			arg := int(b) / 13
			x := entries[arg%len(entries)].Tensor
			switch b % 13 {
			case 0:
				save()
			case 1:
				x.Data()[arg%x.Len()] += 1
			case 2:
				nn.FreezeAllExcept(net, nn.LayerOf(entries[arg%len(entries)].Key))
				nn.ZeroGrads(net)
				for _, p := range nn.NamedParams(net) {
					p.Param.Grad.Fill(float32(arg) + 1)
				}
				train.NewSGD(train.SGDConfig{LR: 0.01}).Step(net)
				nn.SetTrainable(net, true)
			case 3:
				bn := batchNorm(t, net, []string{"bn1", "bn2"}[arg%2])
				bn.Forward(nn.Train(nil), tensor.Uniform(rng, -1, 1, 2, bn.C, 2, 2))
			case 4:
				snaps = append(snaps, nn.StateDictOf(net).Clone())
			case 5:
				if err := snaps[arg%len(snaps)].LoadInto(net); err != nil {
					t.Fatal(err)
				}
			case 6:
				c := nn.StateDictOf(net).Clone()
				m, _ := c.Get(entries[arg%len(entries)].Key)
				m.Data()[0] -= 1
				if err := c.LoadInto(net); err != nil {
					t.Fatal(err)
				}
			case 7:
				idx := make([]int, x.NDim())
				x.Set(float32(arg)+0.5, idx...)
			case 8:
				if arg%2 == 0 {
					x.Fill(float32(arg))
				} else {
					x.Zero()
				}
			case 9:
				if arg%2 == 0 {
					tensor.AddInPlace(x, tensor.Full(1, x.Shape()...))
				} else {
					tensor.Axpy(-2, x, tensor.Full(1, x.Shape()...))
				}
			case 10:
				tensor.Axpy(0.5, x, x)
			case 11:
				x.Reshape(x.Len()).Data()[arg%x.Len()] -= 2
			case 12:
				x.Reshape(x.Len()).Fill(float32(arg))
			}
		}
		save()
	})
}
