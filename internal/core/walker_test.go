package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/docdb"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/shard"
	"repro/internal/train"
)

// buildMixedChain saves snapshot → update → provenance → update through the
// adaptive policy and returns the four ids, root first, each with the hash
// of the state it was saved from.
func buildMixedChain(t *testing.T, stores Stores, seed uint64) (ids, hashes []string) {
	t.Helper()
	ad := NewAdaptive(stores)
	net := tinyNet(t, seed)
	save := func(base string, rec *ProvenanceRecord, want linkKind) {
		t.Helper()
		res, err := ad.Save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: base, WithChecksums: true, Provenance: rec})
		if err != nil {
			t.Fatal(err)
		}
		doc, err := getModelDoc(stores.Meta, res.ID)
		if err != nil {
			t.Fatal(err)
		}
		if doc.kind() != want {
			t.Fatalf("link %d is kind %q, want %q", len(ids), doc.kind(), want)
		}
		ids = append(ids, res.ID)
		hashes = append(hashes, nn.StateDictOf(net).Hash())
	}
	save("", nil, snapshotLink)

	// Frozen classifier and a dataset larger than it: a parameter update.
	models.FreezeForPartialUpdate(models.TinyCNNName, net)
	save(ids[0], trainDerived(t, net, tinyDataset(t)), updateLink)

	// Everything trainable and a tiny dataset: a provenance link.
	nn.SetTrainable(net, true)
	tinyDS, err := dataset.Generate(dataset.Spec{Name: "tiny", Images: 4, H: 8, W: 8, Classes: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	loader, err := train.NewDataLoader(tinyDS, train.LoaderConfig{BatchSize: 2, OutH: 8, OutW: 8, Shuffle: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewProvenanceRecord(train.NewImageClassifierTrainService(
		train.ServiceConfig{Epochs: 1, Seed: 6, Deterministic: true}, loader, train.NewSGD(train.SGDConfig{LR: 0.01, Momentum: 0.9})))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Train(net); err != nil {
		t.Fatal(err)
	}
	save(ids[1], rec, provenanceLink)

	w, _ := nn.StateDictOf(net).Get("fc.weight")
	w.Data()[0] += 0.5
	save(ids[2], nil, updateLink)
	return ids, hashes
}

func allServices(stores Stores) []SaveService {
	return []SaveService{NewBaseline(stores), NewParamUpdate(stores), NewProvenance(stores), NewAdaptive(stores)}
}

// Recovery is one walker over typed links, so which service is asked does
// not matter: each of the four recovers every model of a chain that mixes
// all three link kinds, at the net and at the state level, to the saved
// hash. (Before, three of the four failed on such a chain, one by a nil
// dereference.)
func TestEveryServiceRecoversEveryStoredModel(t *testing.T) {
	stores := testStores(t)
	ids, hashes := buildMixedChain(t, stores, 15)
	opts := RecoverOptions{VerifyChecksums: true}
	for _, svc := range allServices(stores) {
		for i, id := range ids {
			rec, err := svc.Recover(id, opts)
			if err != nil {
				t.Fatalf("%s.Recover(link %d): %v", svc.Approach(), i, err)
			}
			if got := nn.StateDictOf(rec.Net).Hash(); got != hashes[i] {
				t.Errorf("%s.Recover(link %d) hashes to %s, saved %s", svc.Approach(), i, got, hashes[i])
			}
			rs, err := svc.RecoverState(id, opts)
			if err != nil {
				t.Fatalf("%s.RecoverState(link %d): %v", svc.Approach(), i, err)
			}
			if got := rs.State.Hash(); got != hashes[i] {
				t.Errorf("%s.RecoverState(link %d) hashes to %s, saved %s", svc.Approach(), i, got, hashes[i])
			}
			if rec.BaseID != rs.BaseID || rec.Spec != rs.Spec {
				t.Errorf("%s link %d: Recover and RecoverState disagree on base or spec", svc.Approach(), i)
			}
		}
	}

	// A root document that is none of the three kinds is an error that
	// names it, from every service.
	bad := docdb.NewID()
	if err := stores.Meta.Put(ColModels, bad, docdb.Document{"approach": "mystery", "base_id": ids[0]}); err != nil {
		t.Fatal(err)
	}
	for _, svc := range allServices(stores) {
		if _, err := svc.Recover(bad, opts); err == nil || !strings.Contains(err.Error(), bad) {
			t.Errorf("%s recovering a document of no kind: err = %v, want one naming %s", svc.Approach(), err, bad)
		}
	}
}

// A per-approach twin of an entry point cannot quietly return: on each
// service the exported Save* / Recover* methods are exactly the ones
// SaveService lists.
func TestServicesExportOnlyTheInterfaceEntryPoints(t *testing.T) {
	entryPoints := func(typ reflect.Type) []string {
		var names []string
		for i := 0; i < typ.NumMethod(); i++ {
			if n := typ.Method(i).Name; strings.HasPrefix(n, "Save") || strings.HasPrefix(n, "Recover") {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		return names
	}
	want := entryPoints(reflect.TypeOf((*SaveService)(nil)).Elem())
	if len(want) != 6 {
		t.Fatalf("SaveService lists %v, want the three operations in two forms each", want)
	}
	for _, svc := range allServices(testStores(t)) {
		if got := entryPoints(reflect.TypeOf(svc)); !reflect.DeepEqual(got, want) {
			t.Errorf("%T exports %v, SaveService lists %v", svc, got, want)
		}
	}
}

// A provenance chain is hashed once however deep it is — at the requested
// model, or at its nearest checksummed ancestor — and a replay that does
// not reproduce the saved model is reported as such.
func TestProvenanceChainVerifiesOnce(t *testing.T) {
	stores := testStores(t)
	ids := buildMPAChain(t, stores, 71) // snapshot + two provenance links
	mpa := NewProvenance(stores)
	opts := RecoverOptions{VerifyChecksums: true}

	var rec *RecoveredModel
	ops := digestOpsDuring(func() {
		var err error
		if rec, err = mpa.Recover(ids[2], opts); err != nil {
			t.Fatal(err)
		}
	})
	onePass := uint64(nn.StateDictOf(rec.Net).Len())
	if ops != onePass {
		t.Fatalf("recovering a depth-3 provenance chain computed %d tensor digests, want %d (one pass over the state)", ops, onePass)
	}

	// A leaf saved without a checksum over the checksummed chain is
	// verified at its parent.
	prov := trainDerived(t, rec.Net, tinyDataset(t))
	plain, err := mpa.Save(SaveInfo{Spec: tinySpec(), Net: rec.Net, BaseID: ids[2], Provenance: prov})
	if err != nil {
		t.Fatal(err)
	}
	var got *RecoveredModel
	ops = digestOpsDuring(func() {
		if got, err = mpa.Recover(plain.ID, opts); err != nil {
			t.Fatal(err)
		}
	})
	if ops != onePass {
		t.Fatalf("recovering an unchecksummed leaf computed %d tensor digests, want %d (its parent's check)", ops, onePass)
	}
	assertEqualModels(t, rec.Net, got.Net)

	// Halve the epochs the middle link recorded: the replay above it no
	// longer reproduces what was saved, and the one check says so.
	doc, err := getModelDoc(stores.Meta, ids[1])
	if err != nil {
		t.Fatal(err)
	}
	svcRaw, err := stores.Meta.Get(ColServices, doc.ServiceDocID)
	if err != nil {
		t.Fatal(err)
	}
	svcRaw["config"].(map[string]any)["epochs"] = float64(1)
	if err := stores.Meta.Put(ColServices, doc.ServiceDocID, svcRaw); err != nil {
		t.Fatal(err)
	}
	for _, leaf := range []string{ids[2], plain.ID} {
		_, err := mpa.Recover(leaf, opts)
		if err == nil || !strings.Contains(err.Error(), "did not match the saved model (non-deterministic training?)") {
			t.Fatalf("tampered provenance below %s: err = %v, want the reproduced-training mismatch", leaf, err)
		}
	}
}

// cancelAtRead is a document store that cancels a context when the n-th
// root document is read: inside the chain read that returns it.
type cancelAtRead struct {
	docdb.Store
	n      int
	cancel context.CancelFunc
}

func (c *cancelAtRead) Chain(col, id, next, stop string) ([]docdb.Document, error) {
	docs, err := c.Store.Chain(col, id, next, stop)
	if col == ColModels && c.n > 0 {
		if c.n -= len(docs); c.n <= 0 {
			c.cancel()
		}
	}
	return docs, err
}

// A cancelled recovery stops: it returns the context's error, caches
// nothing, leaves no flight behind, and every fetch it had launched has
// finished by the time it returns.
func TestCancelledRecoveryStopsAndLeaksNothing(t *testing.T) {
	stores := testStores(t)
	ids, _ := buildMixedChain(t, stores, 25) // depth 4
	leaf := ids[3]
	for _, cancelAt := range []int{0, 3} { // before the walk; as the third link's document is read
		ctx, cancel := context.WithCancel(context.Background())
		armed := stores
		if cancelAt == 0 {
			cancel()
		} else {
			armed.Meta = &cancelAtRead{Store: stores.Meta, n: cancelAt, cancel: cancel}
		}
		svc := NewAdaptive(armed)
		cache := NewRecoveryCache(0)
		svc.SetRecoveryCache(cache)

		before := runtime.NumGoroutine()
		_, err := svc.RecoverStateCtx(ctx, leaf, RecoverOptions{VerifyChecksums: true})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at %d: err = %v, want context.Canceled", cancelAt, err)
		}
		if s := cache.Stats(); s.Puts != 0 || s.Entries != 0 {
			t.Errorf("cancel at %d: a cancelled recovery filled the cache: %+v", cancelAt, s)
		}
		cache.mu.Lock()
		flights := len(cache.flights)
		cache.mu.Unlock()
		if flights != 0 {
			t.Errorf("cancel at %d: %d flight(s) left in the table", cancelAt, flights)
		}
		// Fetches are drained before the recovery returns; their goroutines
		// need only the instant between closing done and exiting.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("cancel at %d: %d goroutines after the recovery, %d before", cancelAt, n, before)
		}
		// The same service recovers once nothing cancels it.
		if _, err := svc.RecoverState(leaf, RecoverOptions{VerifyChecksums: true}); err != nil {
			t.Fatalf("cancel at %d: recovery afterwards: %v", cancelAt, err)
		}
	}
}

// A base-reference cycle is an error naming the repeated id, not a walk that
// never returns: a self-loop and a 2-cycle of update links, on one store and
// with the cycle's documents on two shards of a ring, fail promptly and
// leave no goroutine behind.
func TestBaseReferenceCycleFailsAndLeaksNothing(t *testing.T) {
	ring, err := shard.NewRing(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := shard.NewMeta(ring, docdb.NewMemStore(), docdb.NewMemStore())
	if err != nil {
		t.Fatal(err)
	}
	// idOn draws a model id that ring routes to shard n.
	idOn := func(n int) string {
		for {
			if id := docdb.NewID(); ring.Owner(ColModels+"/"+id) == n {
				return id
			}
		}
	}
	a, b := idOn(0), idOn(1)
	for _, meta := range []docdb.Store{docdb.NewMemStore(), sharded} {
		stores := testStores(t)
		stores.Meta = meta
		update, err := meta.Get(ColModels, buildPUAChain(t, stores, 95)[1])
		if err != nil {
			t.Fatal(err)
		}
		for name, bases := range map[string]map[string]string{
			"self-loop": {a: a},
			"2-cycle":   {a: b, b: a},
		} {
			for id, base := range bases {
				update["base_id"] = base
				if err := meta.Put(ColModels, id, update); err != nil {
					t.Fatal(err)
				}
			}
			before := runtime.NumGoroutine()
			done := make(chan error, 1)
			go func() {
				_, err := NewParamUpdate(stores).RecoverState(a, RecoverOptions{})
				done <- err
			}()
			select {
			case err = <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("%T %s: recovery did not return", meta, name)
			}
			if err == nil || !strings.Contains(err.Error(), "base-reference cycle at "+a) {
				t.Fatalf("%T %s: err = %v, want the cycle at %s", meta, name, err, a)
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("%T %s: %d goroutines after the recovery, %d before", meta, name, n, before)
			}
		}
	}
}

// A follower waiting on another request's recovery gives up when its own
// context is cancelled, without running a recovery of its own.
func TestCoalescedFollowerHonoursItsContext(t *testing.T) {
	cache := NewRecoveryCache(0)
	entered, release := make(chan struct{}), make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		recoverCoalesced(context.Background(), cache, "m", RecoverOptions{}, func() (*RecoveredState, error) {
			close(entered)
			<-release
			return nil, errors.New("leader failed")
		})
	}()
	<-entered
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := recoverCoalesced(ctx, cache, "m", RecoverOptions{}, func() (*RecoveredState, error) {
		t.Error("a cancelled follower ran its own recovery")
		return nil, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("follower err = %v, want context.Canceled", err)
	}
	close(release)
	<-leaderDone
}

// bucketOfSpan says which RecoverTiming bucket each span a recovery emits
// feeds. DESIGN.md lists the same names.
var bucketOfSpan = map[string]func(*RecoverTiming) *time.Duration{
	"cache.get":    func(t *RecoverTiming) *time.Duration { return &t.Load },
	"flight.wait":  func(t *RecoverTiming) *time.Duration { return &t.Load },
	"fetch":        func(t *RecoverTiming) *time.Duration { return &t.Load },
	"decode":       func(t *RecoverTiming) *time.Duration { return &t.Recover },
	"train.replay": func(t *RecoverTiming) *time.Duration { return &t.Recover },
	"seal":         func(t *RecoverTiming) *time.Duration { return &t.Recover },
	"cache.put":    func(t *RecoverTiming) *time.Duration { return &t.Recover },
	"instantiate":  func(t *RecoverTiming) *time.Duration { return &t.Recover },
	"env.check":    func(t *RecoverTiming) *time.Duration { return &t.CheckEnv },
	"hash.verify":  func(t *RecoverTiming) *time.Duration { return &t.Verify },
}

// Timing has one source: every span under a recovery's root was emitted by
// phase, which fed the same reading to a RecoverTiming bucket — so per
// bucket the span durations sum to the bucket exactly, without a cache,
// filling one and hitting it, for every link kind.
func TestRecoverTimingEqualsItsSpans(t *testing.T) {
	stores := testStores(t)
	ba, err := NewBaseline(stores).Save(SaveInfo{Spec: tinySpec(), Net: tinyNet(t, 81), WithChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	mixed, _ := buildMixedChain(t, stores, 84)
	cases := []struct{ name, id string }{
		{"BA", ba.ID},
		{"PUA depth 3", buildPUAChain(t, stores, 82)[2]},
		{"MPA depth 2", buildMPAChain(t, stores, 83)[1]},
		{"mixed", mixed[3]},
	}
	opts := RecoverOptions{CheckEnv: true, VerifyChecksums: true}
	for _, c := range cases {
		svc := NewAdaptive(stores)
		for _, pass := range []string{"uncached", "cold", "hit"} {
			if pass == "cold" {
				svc.SetRecoveryCache(NewRecoveryCache(0))
			}
			var timing RecoverTiming
			byName, recs := spanTreeOf(t, func(ctx context.Context) {
				rec, err := svc.RecoverCtx(ctx, c.id, opts)
				if err != nil {
					t.Fatalf("%s %s: %v", c.name, pass, err)
				}
				timing = rec.Timing
			})
			root := rootOf(t, byName, "recover")
			var sums RecoverTiming
			for _, r := range recs {
				if r.ID == root.ID {
					continue
				}
				if r.Parent != root.ID {
					t.Errorf("%s %s: span %q is not a direct child of the root", c.name, pass, r.Name)
				}
				bucket, ok := bucketOfSpan[r.Name]
				if !ok {
					t.Errorf("%s %s: span %q feeds no known bucket", c.name, pass, r.Name)
					continue
				}
				*bucket(&sums) += r.Dur
			}
			if sums != timing {
				t.Errorf("%s %s: spans sum to %+v, RecoverTiming is %+v", c.name, pass, sums, timing)
			}
			if timing.Load <= 0 || timing.Recover <= 0 {
				t.Errorf("%s %s: timing = %+v", c.name, pass, timing)
			}
			if pass != "hit" && (timing.Verify <= 0 || timing.CheckEnv <= 0) {
				t.Errorf("%s %s: a verified, environment-checked recovery reports %+v", c.name, pass, timing)
			}
		}
	}
}
