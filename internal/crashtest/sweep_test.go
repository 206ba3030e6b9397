package crashtest

import (
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/nn"
)

// sweep kills one save at every crash point in turn, each time on a fresh
// store seeded by prepare, and asserts the all-or-nothing invariant after
// GC. The writes of one wave reach their crash points in no fixed order, so
// a crash-free save first names the points — exactly the set pinnedPoints
// holds for the link kind — and each is then killed by name, exactly once.
func sweep(t *testing.T, kind string, prepare func(t *testing.T, stores core.Stores) (save func() (nn.Module, error), recoverFn func(id string) nn.Module)) {
	t.Helper()
	stores := newStores(t)
	hook, reached := recordPoints()
	stores.Crash = hook
	save, _ := prepare(t, stores)
	if _, err := save(); err != nil {
		t.Fatalf("crash-free save failed: %v", err)
	}
	points := reached()
	samePoints(t, kind, points)
	for _, point := range points {
		stores := newStores(t)
		var kills atomic.Int64
		kill := crashOn(point)
		stores.Crash = func(p string) error {
			err := kill(p)
			if err != nil {
				kills.Add(1)
			}
			return err
		}
		save, recoverFn := prepare(t, stores)
		before := fingerprint(t, stores)
		net, err := save()
		if !errors.Is(err, core.ErrInjectedCrash) {
			t.Fatalf("crash point %q: save returned %v, want ErrInjectedCrash", point, err)
		}
		if n := kills.Load(); n != 1 {
			t.Fatalf("crash point %q killed %d times, want once", point, n)
		}
		checkAfterCrash(t, stores, before, net, recoverFn)
	}
	t.Logf("%s save: %d crash points swept", kind, len(points))
}

// TestCrashSweepBaseline kills a checksummed BA snapshot save at every
// crash point: staging record, code blob, params blob, env document, and
// both sides of the commit.
func TestCrashSweepBaseline(t *testing.T) {
	sweep(t, "baseline", func(t *testing.T, stores core.Stores) (func() (nn.Module, error), func(id string) nn.Module) {
		ba := core.NewBaseline(stores)
		net := tinyNet(t, 1)
		save := func() (nn.Module, error) {
			_, err := ba.Save(core.SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true})
			return net, err
		}
		return save, func(id string) nn.Module {
			rec, err := ba.Recover(id, core.RecoverOptions{VerifyChecksums: true})
			if err != nil {
				t.Fatalf("recovering committed save: %v", err)
			}
			return rec.Net
		}
	})
}

// TestCrashSweepParamUpdate kills a checksummed derived PUA save at every
// crash point. The base model is saved before the hook's points are
// counted; only the derived save is swept.
func TestCrashSweepParamUpdate(t *testing.T) {
	sweep(t, "paramupdate/derived", func(t *testing.T, stores core.Stores) (func() (nn.Module, error), func(id string) nn.Module) {
		base := stores
		base.Crash = nil
		pua := core.NewParamUpdate(base)
		net := tinyNet(t, 1)
		baseRes, err := pua.Save(core.SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true})
		if err != nil {
			t.Fatalf("saving base model: %v", err)
		}
		perturb(net)
		armed := core.NewParamUpdate(stores)
		save := func() (nn.Module, error) {
			_, err := armed.Save(core.SaveInfo{Spec: tinySpec(), Net: net, BaseID: baseRes.ID, WithChecksums: true})
			return net, err
		}
		return save, func(id string) nn.Module {
			rec, err := pua.Recover(id, core.RecoverOptions{VerifyChecksums: true})
			if err != nil {
				t.Fatalf("recovering committed save: %v", err)
			}
			return rec.Net
		}
	})
}

// TestCrashSweepProvenance kills a checksummed derived MPA save at every
// crash point: staging record, env document, dataset archive blob,
// optimizer-state blob, service document, and both sides of the commit.
func TestCrashSweepProvenance(t *testing.T) {
	sweep(t, "provenance/derived", func(t *testing.T, stores core.Stores) (func() (nn.Module, error), func(id string) nn.Module) {
		base := stores
		base.Crash = nil
		mpa := core.NewProvenance(base)
		net := tinyNet(t, 1)
		baseRes, err := mpa.Save(core.SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true})
		if err != nil {
			t.Fatalf("saving base model: %v", err)
		}
		rec := trainDerived(t, net, tinyDataset(t))
		armed := core.NewProvenance(stores)
		save := func() (nn.Module, error) {
			_, err := armed.Save(core.SaveInfo{Spec: tinySpec(), Net: net, BaseID: baseRes.ID, WithChecksums: true, Provenance: rec})
			return net, err
		}
		return save, func(id string) nn.Module {
			m, err := mpa.Recover(id, core.RecoverOptions{VerifyChecksums: true})
			if err != nil {
				t.Fatalf("recovering committed save: %v", err)
			}
			return m.Net
		}
	})
}

// TestCrashSweepAdaptive kills a derived adaptive save at every crash
// point. Whichever approach the heuristic picks, the layer hashes the
// adaptive approach records for future PUA diffs now live inside the same
// transaction, so the invariant must hold with no post-commit patching.
func TestCrashSweepAdaptive(t *testing.T) {
	sweep(t, "adaptive/derived", func(t *testing.T, stores core.Stores) (func() (nn.Module, error), func(id string) nn.Module) {
		base := stores
		base.Crash = nil
		ad := core.NewAdaptive(base)
		net := tinyNet(t, 1)
		baseRes, err := ad.Save(core.SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true})
		if err != nil {
			t.Fatalf("saving base model: %v", err)
		}
		rec := trainDerived(t, net, tinyDataset(t))
		armed := core.NewAdaptive(stores)
		save := func() (nn.Module, error) {
			_, err := armed.Save(core.SaveInfo{Spec: tinySpec(), Net: net, BaseID: baseRes.ID, WithChecksums: true, Provenance: rec})
			return net, err
		}
		return save, func(id string) nn.Module {
			m, err := ad.Recover(id, core.RecoverOptions{VerifyChecksums: true})
			if err != nil {
				t.Fatalf("recovering committed save: %v", err)
			}
			return m.Net
		}
	})
}

// TestCompletedSaveNeverRolledBack runs a crash-free save and then the GC
// pass: nothing may be scanned, reclaimed, or changed — the commit already
// deleted its own staging record.
func TestCompletedSaveNeverRolledBack(t *testing.T) {
	stores := newStores(t)
	ba := core.NewBaseline(stores)
	net := tinyNet(t, 5)
	res, err := ba.Save(core.SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	before := fingerprint(t, stores)
	rep, err := core.RecoverOrphans(stores)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scanned != 0 {
		t.Fatalf("clean store had staging records: %s", rep)
	}
	sameFingerprint(t, before, fingerprint(t, stores))
	rec, err := ba.Recover(res.ID, core.RecoverOptions{VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	if !nn.StateDictOf(rec.Net).Equal(nn.StateDictOf(net)) {
		t.Fatal("recovered model differs after GC pass")
	}
}
