package core

import (
	"testing"

	"repro/internal/filestore"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// buildPUAChain saves a 3-link PUA chain and returns its ids, root first.
func buildPUAChain(t *testing.T, stores Stores, seed uint64) []string {
	t.Helper()
	pua := NewParamUpdate(stores)
	net := tinyNet(t, seed)
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
	return ids
}

// buildMPAChain saves a root snapshot plus two provenance-trained links.
func buildMPAChain(t *testing.T, stores Stores, seed uint64) []string {
	t.Helper()
	mpa := NewProvenance(stores)
	ds := tinyDataset(t)
	net := tinyNet(t, seed)
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
	return ids
}

type approachCase struct {
	name string
	sr   SaveService
	ids  []string
}

// buildApproachCases sets up one cached state-level recoverer per approach,
// each over a chain shape its approach can recover.
func buildApproachCases(t *testing.T, stores Stores, seed uint64) []approachCase {
	t.Helper()
	var baIDs []string
	for i := uint64(0); i < 3; i++ {
		res, err := NewBaseline(stores).Save(SaveInfo{Spec: tinySpec(), Net: tinyNet(t, seed+i), WithChecksums: true})
		if err != nil {
			t.Fatal(err)
		}
		baIDs = append(baIDs, res.ID)
	}
	puaIDs := buildPUAChain(t, stores, seed+10)
	mpaIDs := buildMPAChain(t, stores, seed+20)

	mk := func(svc SaveService) SaveService {
		svc.SetRecoveryCache(NewRecoveryCache(0))
		return svc
	}
	return []approachCase{
		{"BA", mk(NewBaseline(stores)), baIDs},
		{"PUA", mk(NewParamUpdate(stores)), puaIDs},
		{"MPA", mk(NewProvenance(stores)), mpaIDs},
		// The adaptive recursion dispatches per link, so it recovers the
		// PUA chain as a mixed chain would be.
		{"adaptive", mk(NewAdaptive(stores)), puaIDs},
	}
}

// TestRecoverStateHitIsSharedAndCorrect drives every approach through the
// state-level API: the second recovery of the same id must be a cache hit
// whose state equals the first recovery bit for bit, shares the cached
// tensors (pointer identity of the backing data), and instantiates into a
// net identical to the net-level Recover result.
func TestRecoverStateHitIsSharedAndCorrect(t *testing.T) {
	stores := testStores(t)
	opts := RecoverOptions{CheckEnv: true, VerifyChecksums: true}

	for _, c := range buildApproachCases(t, stores, 31) {
		leaf := c.ids[len(c.ids)-1]
		cold, err := c.sr.RecoverState(leaf, opts)
		if err != nil {
			t.Fatalf("%s cold: %v", c.name, err)
		}
		if cold.CacheHit {
			t.Fatalf("%s: cold recovery reported a hit", c.name)
		}
		warm, err := c.sr.RecoverState(leaf, opts)
		if err != nil {
			t.Fatalf("%s warm: %v", c.name, err)
		}
		if !warm.CacheHit {
			t.Fatalf("%s: warm recovery missed", c.name)
		}
		if !warm.State.Sealed() {
			t.Fatalf("%s: hit state not sealed", c.name)
		}
		if !warm.State.Equal(cold.State) {
			t.Fatalf("%s: warm state differs from cold state", c.name)
		}
		// Two hits share the cached tensors: zero copies per hit.
		warm2, err := c.sr.RecoverState(leaf, opts)
		if err != nil {
			t.Fatalf("%s warm2: %v", c.name, err)
		}
		a, _ := warm.State.Get("fc.weight")
		b, _ := warm2.State.Get("fc.weight")
		if &a.Data()[0] != &b.Data()[0] {
			t.Fatalf("%s: consecutive hits do not share tensor storage", c.name)
		}
		// The state instantiates into the same net Recover produces.
		net, err := warm.Instantiate()
		if err != nil {
			t.Fatalf("%s instantiate: %v", c.name, err)
		}
		rec, err := c.sr.(SaveService).Recover(leaf, opts)
		if err != nil {
			t.Fatalf("%s recover: %v", c.name, err)
		}
		assertEqualModels(t, rec.Net, net)
	}
}

// TestRecoverStateCowNeverAliasesCache is the COW property sweep: for every
// approach and every chain link, mutate each recovered (shared) state
// through the dict API and prove the cached copy never changes — the next
// hit still matches the pristine first recovery.
func TestRecoverStateCowNeverAliasesCache(t *testing.T) {
	stores := testStores(t)
	opts := RecoverOptions{VerifyChecksums: true}

	for _, c := range buildApproachCases(t, stores, 61) {
		for _, id := range c.ids {
			pristine, err := c.sr.RecoverState(id, opts)
			if err != nil {
				t.Fatalf("%s %s: %v", c.name, id, err)
			}
			want := pristine.State.Clone()

			victim, err := c.sr.RecoverState(id, opts)
			if err != nil {
				t.Fatalf("%s %s warm: %v", c.name, id, err)
			}
			for _, e := range victim.State.Entries() {
				w, ok := victim.State.MutableTensor(e.Key)
				if !ok {
					t.Fatalf("%s: missing %q", c.name, e.Key)
				}
				for i := range w.Data() {
					w.Data()[i] = -1e9
				}
			}
			after, err := c.sr.RecoverState(id, opts)
			if err != nil {
				t.Fatalf("%s %s after: %v", c.name, id, err)
			}
			if !after.State.Equal(want) {
				t.Fatalf("%s %s: mutating a recovered state corrupted the cache", c.name, id)
			}
			if !after.CacheHit {
				t.Fatalf("%s %s: expected a hit after mutation (entry must survive)", c.name, id)
			}
		}
	}
}

// TestRecoverStateMmapToggleBitIdentical proves the mmap and ReadAll read
// paths produce byte-identical states, and that the mapped path actually
// aliases frames on platforms that support it.
func TestRecoverStateMmapToggleBitIdentical(t *testing.T) {
	stores := testStores(t)
	ba := NewBaseline(stores)
	net := tinyNet(t, 41)
	res, err := ba.Save(SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	opts := RecoverOptions{VerifyChecksums: true}

	mmapOpens := func() int64 { return obs.Default().Snapshot().Counters["filestore.mmap_opens"] }
	aliasedBefore := tensor.AliasedFrames()
	mapped, err := ba.RecoverState(res.ID, opts)
	if err != nil {
		t.Fatal(err)
	}
	aliasedDelta := tensor.AliasedFrames() - aliasedBefore

	// A throttled store reads its blobs instead of mapping them.
	stores.Files.SetBandwidth(1 << 40)
	opensBefore := mmapOpens()
	plain, err := ba.RecoverState(res.ID, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !mapped.State.Equal(plain.State) {
		t.Fatal("mmap and ReadAll recoveries differ")
	}
	if mapped.State.Hash() != plain.State.Hash() {
		t.Fatal("hash differs across read paths")
	}
	if n := mmapOpens() - opensBefore; n != 0 {
		t.Fatalf("the throttled recovery mapped %d blobs", n)
	}
	// When the blob really was mapped and the platform can alias, the
	// mapped recovery must have decoded at least one frame zero-copy.
	if filestore.MmapEnabled() && tensor.CanAlias() && aliasedDelta == 0 {
		t.Fatal("mapped recovery aliased no frames")
	}
}
