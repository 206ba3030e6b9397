package core

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/environment"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/train"
)

func testCachedRecovery(t *testing.T, seed uint64) CachedRecovery {
	t.Helper()
	net := tinyNet(t, seed)
	sd := nn.StateDictOf(net).Clone()
	return CachedRecovery{
		Spec:      tinySpec(),
		State:     sd,
		Env:       environment.Capture(),
		StateHash: sd.Hash(),
	}
}

// TestRecoveryCacheCowIsolation: nothing a caller does reaches a cached
// state. An unsealed Put argument is cloned; every hit hands out the
// cached dict itself, with one Version, and Set on it panics without
// changing the entry; a re-Put is a new version.
func TestRecoveryCacheCowIsolation(t *testing.T) {
	c := NewRecoveryCache(0)
	rec := testCachedRecovery(t, 1)
	key := rec.State.Entries()[0].Key
	orig := rec.State.Clone()
	want := orig.Hash()

	c.Put("m1", rec)
	// The Put argument was unsealed, so the cache cloned it: mutating it
	// afterwards must not affect the cache.
	rec.State.Entries()[0].Tensor.Data()[0] += 100

	got, ok := c.Get("m1")
	if !ok {
		t.Fatal("expected hit")
	}
	if !got.State.Sealed() {
		t.Fatal("Get must hand out a sealed state")
	}
	if !got.State.Equal(orig) {
		t.Fatal("cached state was corrupted by mutating the Put argument")
	}
	again, ok := c.Get("m1")
	if !ok {
		t.Fatal("expected second hit")
	}
	if again.State != got.State || again.State.Version() != got.State.Version() {
		t.Fatal("hits of one entry must hand out one dict with one version")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Set on a hit's State must panic")
			}
		}()
		got.State.Set(key, tensor.Zeros(1))
	}()
	c.mu.Lock()
	e := c.entries["m1"]
	c.mu.Unlock()
	if e.hash != want || e.rec.State.HashFresh() != want || !e.rec.State.Equal(orig) {
		t.Fatal("a Set on a hit's State changed the cache entry")
	}

	// Putting the same id again replaces the entry: a new version.
	c.Put("m1", testCachedRecovery(t, 1))
	fresh, ok := c.Get("m1")
	if !ok {
		t.Fatal("expected hit after re-Put")
	}
	if fresh.State.Version() == got.State.Version() {
		t.Fatal("a re-Put entry must be a new version")
	}
	if !fresh.State.Equal(orig) {
		t.Fatal("re-Put entry differs")
	}
	s := c.Stats()
	if s.Hits != 3 || s.Puts != 2 || s.Entries != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestRecoveryCachePutSealedIsZeroCopy(t *testing.T) {
	c := NewRecoveryCache(0)
	rec := testCachedRecovery(t, 2)
	sealed := rec.State.Seal()
	c.Put("m1", rec)

	c.mu.Lock()
	stored := c.entries["m1"].rec.State
	c.mu.Unlock()
	if stored != sealed {
		t.Fatal("Put must take an already-sealed state without cloning")
	}
	// Get hands out the cached dict itself: it is read-only, so sharing
	// it costs nothing and risks nothing.
	got, ok := c.Get("m1")
	if !ok {
		t.Fatal("expected hit")
	}
	if got.State != sealed {
		t.Fatal("Get must return the cached dict")
	}
	if got.VerifiedHash == "" || got.VerifiedHash != got.StateHash {
		t.Fatalf("VerifiedHash = %q, StateHash = %q", got.VerifiedHash, got.StateHash)
	}
}

func TestRecoveryCacheEviction(t *testing.T) {
	one := testCachedRecovery(t, 1)
	size := stateBytes(one.State)

	// Room for exactly two entries.
	c := NewRecoveryCache(2 * size)
	c.Put("a", testCachedRecovery(t, 1))
	c.Put("b", testCachedRecovery(t, 2))
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should still be cached")
	}
	// a is now most recently used; inserting c must evict b.
	c.Put("c", testCachedRecovery(t, 3))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a should have survived as most recently used")
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 2 || s.Bytes != 2*size {
		t.Fatalf("stats = %+v", s)
	}

	// An entry larger than the whole bound is not cached at all.
	small := NewRecoveryCache(size - 1)
	small.Put("big", testCachedRecovery(t, 4))
	if s := small.Stats(); s.Entries != 0 || s.Puts != 0 {
		t.Fatalf("oversize entry was cached: %+v", s)
	}
}

func TestRecoveryCacheCorruptHitDropsEntry(t *testing.T) {
	// Direct writes into a sealed dict's tensor data are out of contract —
	// sealing cannot physically prevent them — so only a Paranoid cache
	// (verification on every hit, hashed fresh from the bytes) catches
	// them. The default cache would serve the corrupted entry.
	c := NewParanoidRecoveryCache(0)
	c.Put("m1", testCachedRecovery(t, 1))

	// Corrupt the cache's private copy behind its back.
	c.mu.Lock()
	e := c.entries["m1"]
	c.mu.Unlock()
	e.rec.State.Entries()[0].Tensor.Data()[0] += 1

	if _, ok := c.Get("m1"); ok {
		t.Fatal("verification-on-hit must reject a corrupted entry")
	}
	s := c.Stats()
	if s.Corrupt != 1 || s.Entries != 0 {
		t.Fatalf("stats = %+v", s)
	}
	// The drop degrades to a miss; the entry is gone, not poisoned.
	if _, ok := c.Get("m1"); ok {
		t.Fatal("dropped entry should stay gone")
	}
}

// resaveArtifacts persists net as a fresh independent snapshot under a
// pinned environment and captures the stored bytes, so two recovered nets
// can be compared byte for byte through the storage layer.
func resaveArtifacts(t *testing.T, spec models.Spec, net nn.Module, env *environment.Info) Artifacts {
	t.Helper()
	stores := testStores(t)
	ba := NewBaseline(stores)
	res, err := ba.Save(SaveInfo{Spec: spec, Net: net, Env: env, WithChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	art, err := CaptureArtifacts(stores, res.ID)
	if err != nil {
		t.Fatal(err)
	}
	return art
}

// assertCachedSweepMatchesUncached recovers every id through both services
// in sweep order and asserts artifact-identical results, then re-recovers
// the leaf to exercise the warm full-hit path.
func assertCachedSweepMatchesUncached(t *testing.T, cached, uncached SaveService, ids []string) {
	t.Helper()
	env := environment.Capture()
	opts := RecoverOptions{CheckEnv: true, VerifyChecksums: true}
	artOf := func(svc SaveService, id string) Artifacts {
		rec, err := svc.Recover(id, opts)
		if err != nil {
			t.Fatalf("recover %s: %v", id, err)
		}
		return resaveArtifacts(t, rec.Spec, rec.Net, &env)
	}
	for i, id := range ids {
		if d := artOf(cached, id).Diff(artOf(uncached, id)); d != "" {
			t.Fatalf("model %d (%s): cached recovery differs from uncached: %s", i, id, d)
		}
	}
	leaf := ids[len(ids)-1]
	if d := artOf(cached, leaf).Diff(artOf(uncached, leaf)); d != "" {
		t.Fatalf("warm full-hit recovery of %s differs from uncached: %s", leaf, d)
	}
}

func withCache(t *testing.T, svc SaveService) SaveService {
	t.Helper()
	svc.SetRecoveryCache(NewRecoveryCache(0))
	return svc
}

func TestCachedRecoveryArtifactIdentityBA(t *testing.T) {
	stores := testStores(t)
	var ids []string
	for seed := uint64(1); seed <= 3; seed++ {
		res, err := NewBaseline(stores).Save(SaveInfo{Spec: tinySpec(), Net: tinyNet(t, seed), WithChecksums: true})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, res.ID)
	}
	assertCachedSweepMatchesUncached(t, withCache(t, NewBaseline(stores)), NewBaseline(stores), ids)
}

func TestCachedRecoveryArtifactIdentityPUA(t *testing.T) {
	stores := testStores(t)
	pua := NewParamUpdate(stores)
	net := tinyNet(t, 11)
	res, err := pua.Save(SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{res.ID}
	for i := 0; i < 3; i++ {
		w, _ := nn.StateDictOf(net).Get("fc.weight")
		w.Data()[i] += 0.25
		res, err = pua.Save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: ids[len(ids)-1], WithChecksums: true})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, res.ID)
	}
	assertCachedSweepMatchesUncached(t, withCache(t, NewParamUpdate(stores)), NewParamUpdate(stores), ids)
}

func TestCachedRecoveryArtifactIdentityMPA(t *testing.T) {
	stores := testStores(t)
	mpa := NewProvenance(stores)
	ds := tinyDataset(t)
	net := tinyNet(t, 12)
	res, err := mpa.Save(SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{res.ID}
	for i := 0; i < 2; i++ {
		rec := trainDerived(t, net, ds)
		res, err = mpa.Save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: ids[len(ids)-1], WithChecksums: true, Provenance: rec})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, res.ID)
	}
	assertCachedSweepMatchesUncached(t, withCache(t, NewProvenance(stores)), NewProvenance(stores), ids)
}

func TestCachedRecoveryArtifactIdentityAdaptiveMixedChain(t *testing.T) {
	stores := testStores(t)
	ad := NewAdaptive(stores)
	bigDS := tinyDataset(t)
	net := tinyNet(t, 15)
	u1, err := ad.Save(SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{u1.ID}

	// Large dataset + frozen classifier → PUA link.
	models.FreezeForPartialUpdate(models.TinyCNNName, net)
	rec := trainDerived(t, net, bigDS)
	res, err := ad.Save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: ids[0], WithChecksums: true, Provenance: rec})
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, res.ID)
	if doc, err := getModelDoc(stores.Meta, res.ID); err != nil || doc.Approach != ParamUpdateApproach {
		t.Fatalf("link 1 approach: %v %v", doc.Approach, err)
	}

	// Tiny dataset, everything trainable → MPA link.
	nn.SetTrainable(net, true)
	tinyDS, err := dataset.Generate(dataset.Spec{Name: "tiny", Images: 4, H: 8, W: 8, Classes: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	loader, err := train.NewDataLoader(tinyDS, train.LoaderConfig{BatchSize: 2, OutH: 8, OutW: 8, Shuffle: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	svc := train.NewImageClassifierTrainService(train.ServiceConfig{Epochs: 1, Seed: 6, Deterministic: true}, loader, train.NewSGD(train.SGDConfig{LR: 0.01}))
	rec2, err := NewProvenanceRecord(svc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec2.Train(net); err != nil {
		t.Fatal(err)
	}
	res2, err := ad.Save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: ids[1], WithChecksums: true, Provenance: rec2})
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, res2.ID)
	if doc, err := getModelDoc(stores.Meta, res2.ID); err != nil || doc.Approach != ProvenanceApproach {
		t.Fatalf("link 2 approach: %v %v", doc.Approach, err)
	}

	// One more PUA link on top of the MPA link.
	w, _ := nn.StateDictOf(net).Get("fc.weight")
	w.Data()[0] += 0.5
	res3, err := ad.Save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: ids[2], WithChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, res3.ID)

	assertCachedSweepMatchesUncached(t, withCache(t, NewAdaptive(stores)), NewAdaptive(stores), ids)
}

func TestBaselineChecksumDetectsCorruptedCacheState(t *testing.T) {
	// End to end: a corrupted cache entry must degrade to the uncached
	// path, never serve wrong parameters. Corruption is injected by
	// writing into the cached tensors directly, so the blobs must be read,
	// not mapped (the cached state would otherwise alias a read-only
	// mapping and the write would fault instead of corrupting) — a
	// throttled store reads — and the cache must be Paranoid (the default
	// cache trusts sealed immutability).
	stores := testStores(t)
	stores.Files.SetBandwidth(1 << 40)
	ba := NewBaseline(stores)
	cache := NewParanoidRecoveryCache(0)
	ba.SetRecoveryCache(cache)
	net := tinyNet(t, 9)
	res, err := ba.Save(SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ba.Recover(res.ID, RecoverOptions{}); err != nil {
		t.Fatal(err)
	}
	cache.mu.Lock()
	e := cache.entries[res.ID]
	cache.mu.Unlock()
	e.rec.State.Entries()[0].Tensor.Data()[0] += 1

	rec, err := ba.Recover(res.ID, RecoverOptions{VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	assertEqualModels(t, net, rec.Net)
	s := cache.Stats()
	if s.Corrupt != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestRecoveryCachePrefixSweepStats(t *testing.T) {
	// Guard the sweep bookkeeping the ablation prints: a full sweep over a
	// 3-link PUA chain must be 1 miss + put per model plus one hit per
	// prefix reuse.
	stores := testStores(t)
	pua := NewParamUpdate(stores)
	net := tinyNet(t, 21)
	res, err := pua.Save(SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{res.ID}
	for i := 0; i < 2; i++ {
		w, _ := nn.StateDictOf(net).Get("fc.weight")
		w.Data()[i] += 0.5
		res, err = pua.Save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: ids[len(ids)-1], WithChecksums: true})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, res.ID)
	}
	cache := NewRecoveryCache(0)
	pua.SetRecoveryCache(cache)
	for _, id := range ids {
		if _, err := pua.Recover(id, RecoverOptions{VerifyChecksums: true}); err != nil {
			t.Fatal(err)
		}
	}
	s := cache.Stats()
	// Each of the 3 recoveries misses on its own id; recoveries 2 and 3
	// hit their immediate base. 3 puts, entries bounded by the chain.
	if s.Misses != 3 || s.Hits != 2 || s.Puts != 3 {
		t.Fatalf("sweep stats = %+v", s)
	}
	if s.Corrupt != 0 || s.Entries == 0 {
		t.Fatalf("sweep stats = %+v", s)
	}
}
