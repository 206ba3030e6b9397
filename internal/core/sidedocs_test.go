package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/docdb"
	"repro/internal/nn"
)

// Side documents share their model's root id, and readers read them under
// that id before the root document names them. These tests pin what must
// not change with it: failures, the fallback to older stores, cancellation
// and cleanup.

// savePUAPair saves a parameter-update snapshot and one update on it and
// returns their ids.
func savePUAPair(t *testing.T, stores Stores) (base, leaf string) {
	t.Helper()
	net := tinyNet(t, 5)
	pua := NewParamUpdate(stores)
	b, err := pua.Save(SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	nn.StateDictOf(net).Entries()[0].Tensor.Data()[0] += 1
	l, err := pua.Save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: b.ID, WithChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	return b.ID, l.ID
}

// relocateSideDocs moves model id's side documents to ids of their own and
// points its root document at them, as stores written before side
// documents shared the root id hold them.
func relocateSideDocs(t *testing.T, meta docdb.Store, id string) {
	t.Helper()
	root, err := meta.Get(ColModels, id)
	if err != nil {
		t.Fatal(err)
	}
	for field, col := range map[string]string{"env_doc_id": ColEnvironments, "hash_doc_id": ColLayerHashes, "service_doc_id": ColServices} {
		if root[field] != id {
			continue
		}
		doc, err := meta.Get(col, id)
		if err != nil {
			t.Fatal(err)
		}
		moved := docdb.NewID()
		if err := meta.Put(col, moved, doc); err != nil {
			t.Fatal(err)
		}
		if err := meta.Delete(col, id); err != nil {
			t.Fatal(err)
		}
		root[field] = moved
	}
	if err := meta.Put(ColModels, id, root); err != nil {
		t.Fatal(err)
	}
}

// A recovery whose environment document is missing fails naming it, and a
// derived save whose base lost its layer-hash document fails naming that:
// the early read's error is the operation's when the root names its id.
func TestWalkAndSaveFailNamingAMissingSideDocument(t *testing.T) {
	stores := testStores(t)
	base, leaf := savePUAPair(t, stores)
	if err := stores.Meta.Delete(ColEnvironments, leaf); err != nil {
		t.Fatal(err)
	}
	_, err := NewParamUpdate(stores).RecoverState(leaf, RecoverOptions{})
	if want := ColEnvironments + "/" + leaf; err == nil || !strings.Contains(err.Error(), want) || !errors.Is(err, docdb.ErrNotFound) {
		t.Fatalf("recovery error = %v, want a not-found naming %s", err, want)
	}

	if err := stores.Meta.Delete(ColLayerHashes, base); err != nil {
		t.Fatal(err)
	}
	net := tinyNet(t, 6)
	_, err = NewParamUpdate(stores).Save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: base})
	if want := ColLayerHashes + "/" + base; err == nil || !strings.Contains(err.Error(), want) || !errors.Is(err, docdb.ErrNotFound) {
		t.Fatalf("save error = %v, want a not-found naming %s", err, want)
	}
	if ids, err := stores.Meta.IDs(ColStaging); err != nil || len(ids) != 0 {
		t.Fatalf("staging records left by the failed save: %v (err %v)", ids, err)
	}
}

// failingEarly fails every read of a side document under its model's root
// id with a non-not-found error.
type failingEarly struct {
	docdb.Store
	roots map[string]bool
}

var errEarlyRead = errors.New("injected early-read failure")

func (f failingEarly) Get(col, id string) (docdb.Document, error) {
	if col != ColModels && f.roots[id] {
		return nil, errEarlyRead
	}
	return f.Store.Get(col, id)
}

// An early read that fails while the root document names another id is
// dropped: the recovery and the derived save read by the name and succeed.
func TestWalkAndSaveDropAFailedEarlyReadUnderAnotherName(t *testing.T) {
	stores := testStores(t)
	base, leaf := savePUAPair(t, stores)
	relocateSideDocs(t, stores.Meta, base)
	relocateSideDocs(t, stores.Meta, leaf)
	armed := stores
	armed.Meta = failingEarly{stores.Meta, map[string]bool{base: true, leaf: true}}

	for _, id := range []string{base, leaf} {
		if _, err := NewParamUpdate(armed).RecoverState(id, RecoverOptions{VerifyChecksums: true}); err != nil {
			t.Fatalf("recovering %s: %v", id, err)
		}
	}
	rm, err := NewParamUpdate(stores).Recover(leaf, RecoverOptions{})
	if err != nil {
		t.Fatal(err)
	}
	nn.StateDictOf(rm.Net).Entries()[1].Tensor.Data()[0] += 1
	res, err := NewParamUpdate(armed).Save(SaveInfo{Spec: tinySpec(), Net: rm.Net, BaseID: leaf, WithChecksums: true})
	if err != nil {
		t.Fatalf("saving on a base whose early read fails: %v", err)
	}
	if _, err := NewParamUpdate(armed).RecoverState(res.ID, RecoverOptions{VerifyChecksums: true}); err != nil {
		t.Fatal(err)
	}
}

// slowEnv makes the read of environments/<id> slow and counts it while in
// flight; its Chain cancels a context.
type slowEnv struct {
	docdb.Store
	id       string
	delay    time.Duration
	inflight atomic.Int32
	cancel   context.CancelFunc
}

func (s *slowEnv) Get(col, id string) (docdb.Document, error) {
	if col == ColEnvironments && id == s.id {
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		time.Sleep(s.delay)
	}
	return s.Store.Get(col, id)
}

func (s *slowEnv) Chain(col, id, next, stop string) ([]docdb.Document, error) {
	defer s.cancel()
	return s.Store.Chain(col, id, next, stop)
}

// A recovery cancelled while its early environment read is still in
// flight returns the context's error only after that read has finished,
// whether the root document names the read's id or, in an older store,
// another one.
func TestWalkCancelledDrainsItsEarlyRead(t *testing.T) {
	stores := testStores(t)
	_, leaf := savePUAPair(t, stores)
	for _, relocated := range []bool{false, true} {
		if relocated {
			relocateSideDocs(t, stores.Meta, leaf)
		}
		ctx, cancel := context.WithCancel(context.Background())
		slow := &slowEnv{Store: stores.Meta, id: leaf, delay: 50 * time.Millisecond, cancel: cancel}
		armed := stores
		armed.Meta = slow
		_, err := NewParamUpdate(armed).RecoverStateCtx(ctx, leaf, RecoverOptions{})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("relocated %v: err = %v, want context.Canceled", relocated, err)
		}
		if n := slow.inflight.Load(); n != 0 {
			t.Fatalf("relocated %v: recovery returned with %d environment read(s) in flight", relocated, n)
		}
	}
}

// deleteLog records every delete outside the staging collection.
type deleteLog struct {
	docdb.Store
	mu      sync.Mutex
	deleted []DocRef
}

func (d *deleteLog) Delete(col, id string) error {
	if col != ColStaging {
		d.mu.Lock()
		d.deleted = append(d.deleted, DocRef{col, id})
		d.mu.Unlock()
	}
	return d.Store.Delete(col, id)
}

// storeKeys lists every document ("col/id") and blob ("blob/id") held.
func storeKeys(t *testing.T, stores Stores) []string {
	t.Helper()
	var keys []string
	for _, col := range []string{ColModels, ColEnvironments, ColLayerHashes, ColServices, ColStaging} {
		ids, err := stores.Meta.IDs(col)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			keys = append(keys, col+"/"+id)
		}
	}
	blobs, err := stores.Files.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blobs {
		keys = append(keys, "blob/"+b)
	}
	sort.Strings(keys)
	return keys
}

// Ids repeat across collections — a model's root and side documents share
// one — so cleanup must go by (collection, id). A save that fails
// in its wave rolls back, and RecoverOrphans after a crash at doc:env
// sweeps, exactly the (collection, id) pairs the staging record names,
// and the store is left as it was before the save.
func TestRollbackAndOrphanSweepDeleteExactlyTheStagedPairs(t *testing.T) {
	kinds := []struct {
		name string
		save func(t *testing.T, stores Stores, base string, net nn.Module) error
	}{
		{"update", func(t *testing.T, stores Stores, base string, net nn.Module) error {
			nn.StateDictOf(net).Entries()[0].Tensor.Data()[1] += 1
			_, err := NewParamUpdate(stores).Save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: base, WithChecksums: true})
			return err
		}},
		{"provenance", func(t *testing.T, stores Stores, base string, net nn.Module) error {
			rec := trainDerived(t, net, tinyDataset(t))
			_, err := NewProvenance(stores).Save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: base, WithChecksums: true, Provenance: rec})
			return err
		}},
	}
	for _, kind := range kinds {
		for _, how := range []string{"rollback", "crash at doc:env"} {
			t.Run(kind.name+"/"+how, func(t *testing.T) {
				stores := testStores(t)
				net := tinyNet(t, 9)
				base, err := NewParamUpdate(stores).Save(SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true})
				if err != nil {
					t.Fatal(err)
				}
				before := storeKeys(t, stores)
				log := &deleteLog{Store: stores.Meta}
				armed := Stores{Meta: log, Files: stores.Files}
				var staged []DocRef
				armed.Crash = func(point string) error {
					switch point {
					case "staged":
						ids, err := stores.Meta.IDs(ColStaging)
						if err != nil || len(ids) != 1 {
							return fmt.Errorf("staging records %v: %v", ids, err)
						}
						rec, err := loadDoc[stagingDoc](stores.Meta, ColStaging, ids[0])
						staged = rec.Docs
						return err
					case "doc:env": // never reached when the environment's put fails
						return fmt.Errorf("%w at %s", ErrInjectedCrash, point)
					}
					return nil
				}
				if how == "rollback" {
					armed.Meta = failingPuts{log, ColEnvironments}
				}
				err = kind.save(t, armed, base.ID, net)
				switch {
				case how == "rollback" && !errors.Is(err, errPutFailed):
					t.Fatalf("save error = %v, want the injected put failure", err)
				case how != "rollback" && !errors.Is(err, ErrInjectedCrash):
					t.Fatalf("save error = %v, want the injected crash", err)
				}
				if how != "rollback" {
					if len(log.deleted) != 0 {
						t.Fatalf("a crashed save deleted %v", log.deleted)
					}
					if _, err := RecoverOrphans(Stores{Meta: log, Files: stores.Files}); err != nil {
						t.Fatal(err)
					}
				}
				if len(staged) < 2 {
					t.Fatalf("staged documents %v, want at least the environment and one more", staged)
				}
				if got, want := sortedRefs(log.deleted), sortedRefs(staged); !reflect.DeepEqual(got, want) {
					t.Fatalf("cleanup deleted %v, staged %v", got, want)
				}
				if after := storeKeys(t, stores); !reflect.DeepEqual(after, before) {
					t.Fatalf("store after cleanup %v, before the save %v", after, before)
				}
			})
		}
	}
}

func sortedRefs(refs []DocRef) []DocRef {
	return sortedOwned(Owned{Docs: refs}).Docs
}
