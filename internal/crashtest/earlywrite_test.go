package crashtest

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/nn"
)

// A parameter update whose guessed layers serialize to 1 MiB or more is
// written as soon as the staging record is durable, beside the rest of the
// save, and written again under the same staged id when the diff names
// other layers. The tests here kill and fail such saves.

// wideSpec is a TinyCNN whose classifier alone is just over 1 MiB, so a
// derived save that changes it writes its update early.
func wideSpec() models.Spec { return models.Spec{Arch: models.TinyCNNName, NumClasses: 1 << 14} }

func wideNet(t *testing.T, seed uint64) nn.Module {
	t.Helper()
	m, err := models.New(models.TinyCNNName, wideSpec().NumClasses, seed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// pokeTensor adds delta to the first value of the net's tensor under key.
func pokeTensor(t *testing.T, net nn.Module, key string, delta float32) {
	t.Helper()
	x, ok := nn.StateDictOf(net).Get(key)
	if !ok {
		t.Fatalf("no tensor %q", key)
	}
	x.Data()[0] += delta
}

// prepareWide saves a wide net's PUA snapshot through an unarmed copy of
// stores, lets edit derive the next version, and returns the armed derived
// save and a recovery.
func prepareWide(edit func(t *testing.T, net nn.Module)) func(t *testing.T, stores core.Stores) (func() (nn.Module, error), func(id string) nn.Module) {
	return func(t *testing.T, stores core.Stores) (func() (nn.Module, error), func(id string) nn.Module) {
		base := stores
		base.Crash = nil
		pua := core.NewParamUpdate(base)
		net := wideNet(t, 1)
		baseRes, err := pua.Save(core.SaveInfo{Spec: wideSpec(), Net: net, WithChecksums: true})
		if err != nil {
			t.Fatalf("saving base model: %v", err)
		}
		edit(t, net)
		armed := core.NewParamUpdate(stores)
		save := func() (nn.Module, error) {
			_, err := armed.Save(core.SaveInfo{Spec: wideSpec(), Net: net, BaseID: baseRes.ID, WithChecksums: true})
			return net, err
		}
		return save, func(id string) nn.Module {
			rec, err := pua.Recover(id, core.RecoverOptions{VerifyChecksums: true})
			if err != nil {
				t.Fatalf("recovering committed save: %v", err)
			}
			return rec.Net
		}
	}
}

// guessedRight changes the classifier only: the early write is the update.
func guessedRight(t *testing.T, net nn.Module) {
	models.FreezeForPartialUpdate(models.TinyCNNName, net)
	pokeTensor(t, net, "fc.weight", 0.5)
}

// guessedExtra also takes conv1's weights through Data() and leaves them
// as they were: the early write holds a layer the diff does not name, so
// the update is written again.
func guessedExtra(t *testing.T, net nn.Module) {
	x, _ := nn.StateDictOf(net).Get("conv1.weight")
	x.Data()
	pokeTensor(t, net, "fc.weight", 0.5)
}

// TestCrashSweepEarlyWrite kills a derived PUA save whose update is
// written early at every crash point; at blob:params the early write dies
// while the side-document wave may still be in flight.
func TestCrashSweepEarlyWrite(t *testing.T) {
	sweep(t, "paramupdate/derived", prepareWide(guessedRight))
}

// crashOnNth returns a hook that dies at the n-th arrival at the named
// crash point, counting from 1.
func crashOnNth(name string, n int64) core.CrashFn {
	var seen atomic.Int64
	return func(point string) error {
		if point == name && seen.Add(1) == n {
			return fmt.Errorf("%w (point %q, arrival %d)", core.ErrInjectedCrash, point, n)
		}
		return nil
	}
}

// TestCrashDuringRewrite kills a save whose early write guessed wrong: at
// the early write's blob:params, and at the rewrite's. Either way the
// store must roll back to exactly its state before the save.
func TestCrashDuringRewrite(t *testing.T) {
	stores := newStores(t)
	hook, reached := recordPoints()
	stores.Crash = hook
	save, _ := prepareWide(guessedExtra)(t, stores)
	if _, err := save(); err != nil {
		t.Fatalf("crash-free save failed: %v", err)
	}
	samePoints(t, "paramupdate/rewrite", reached())

	for _, arrival := range []int64{1, 2} {
		stores := newStores(t)
		stores.Crash = crashOnNth("blob:params", arrival)
		save, recoverFn := prepareWide(guessedExtra)(t, stores)
		before := fingerprint(t, stores)
		net, err := save()
		if !errors.Is(err, core.ErrInjectedCrash) {
			t.Fatalf("blob:params arrival %d: save returned %v, want ErrInjectedCrash", arrival, err)
		}
		checkAfterCrash(t, stores, before, net, recoverFn)
	}
}

// TestEarlyWriteFailureLeaksNothing fails a save after its early write
// landed — its base's layer-hash document names one layer fewer than the
// net has — and checks that the rollback, which waits for the early write,
// leaves nothing behind.
func TestEarlyWriteFailureLeaksNothing(t *testing.T) {
	stores := newStores(t)
	pua := core.NewParamUpdate(stores)
	net := wideNet(t, 1)
	baseRes, err := pua.Save(core.SaveInfo{Spec: wideSpec(), Net: net, WithChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	hashes, err := stores.Meta.Get(core.ColLayerHashes, baseRes.ID)
	if err != nil {
		t.Fatal(err)
	}
	layers := hashes["layers"].([]any)
	hashes["layers"] = layers[:len(layers)-1]
	if err := stores.Meta.Put(core.ColLayerHashes, baseRes.ID, hashes); err != nil {
		t.Fatal(err)
	}

	guessedRight(t, net)
	armed := stores
	hook, reached := recordPoints()
	armed.Crash = hook
	_, err = core.NewParamUpdate(armed).Save(core.SaveInfo{Spec: wideSpec(), Net: net, BaseID: baseRes.ID, WithChecksums: true})
	if err == nil || !strings.Contains(err.Error(), "layer count changed") {
		t.Fatalf("a save against a base of another layer count returned %v, want the layer-count error", err)
	}
	if got := reached(); len(got) != 2 || got[0] != "blob:params" || got[1] != "staged" {
		t.Fatalf("crash points reached = %q, want the staging record and the early write only", got)
	}
	if ids, err := stores.Meta.IDs(core.ColStaging); err != nil || len(ids) != 0 {
		t.Fatalf("failed save left staging records: %v (err %v)", ids, err)
	}
	assertFullyReferenced(t, stores)
}
