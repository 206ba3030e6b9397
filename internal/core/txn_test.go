package core

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/docdb"
	"repro/internal/filestore"
	"repro/internal/nn"
)

// callLog is a docdb.Store decorator that makes every call take roughly
// lag and records when each one ran, so a test can read how many round
// trips a save waits for one after another.
type callLog struct {
	docdb.Store
	lag time.Duration

	mu    sync.Mutex
	calls []loggedCall
}

type loggedCall struct {
	// trailing marks the staging record's delete after the commit.
	trailing   bool
	start, end time.Time
}

// record lags the call it is deferred in and logs its interval.
func (l *callLog) record(trailing bool) func() {
	start := time.Now()
	time.Sleep(l.lag)
	return func() {
		l.mu.Lock()
		l.calls = append(l.calls, loggedCall{trailing, start, time.Now()})
		l.mu.Unlock()
	}
}

func (l *callLog) Put(col, id string, doc docdb.Document) error {
	defer l.record(false)()
	return l.Store.Put(col, id, doc)
}

func (l *callLog) Get(col, id string) (docdb.Document, error) {
	defer l.record(false)()
	return l.Store.Get(col, id)
}

func (l *callLog) Chain(col, id, next, stop string) ([]docdb.Document, error) {
	defer l.record(false)()
	return l.Store.Chain(col, id, next, stop)
}

func (l *callLog) Delete(col, id string) error {
	defer l.record(col == ColStaging)()
	return l.Store.Delete(col, id)
}

// reset forgets the calls logged so far.
func (l *callLog) reset() {
	l.mu.Lock()
	l.calls = nil
	l.mu.Unlock()
}

// serialDepth is the longest chain of logged calls, the staging record's
// trailing delete aside, in which each call started only after the one
// before it had returned: the round trips the caller waited for one after
// another.
func (l *callLog) serialDepth() int {
	l.mu.Lock()
	var calls []loggedCall
	for _, c := range l.calls {
		if !c.trailing {
			calls = append(calls, c)
		}
	}
	l.mu.Unlock()
	sort.Slice(calls, func(i, j int) bool { return calls[i].end.Before(calls[j].end) })
	depth := make([]int, len(calls))
	best := 0
	for i, c := range calls {
		depth[i] = 1
		for j := 0; j < i; j++ {
			if !calls[j].end.After(c.start) && depth[j]+1 > depth[i] {
				depth[i] = depth[j] + 1
			}
		}
		best = max(best, depth[i])
	}
	return best
}

// TestSaveRoundTripBudget pins how many document round trips each link
// kind waits for in series: only the staging record before the artifacts
// and the root document after them are ordered, so every save costs 3 —
// a snapshot or a provenance link (staging, one wave, root) and a
// parameter update alike (its base model and the base's layer hashes,
// read under the base's id, alongside the staging record; the wave; the
// root) — plus the staging record's delete after the commit.
func TestSaveRoundTripBudget(t *testing.T) {
	cases := []struct {
		name string
		want int
		// save runs the measured save; a case that needs a base model
		// saves it first and then resets log.
		save func(t *testing.T, stores Stores, log *callLog) error
	}{
		{"baseline", 3, func(t *testing.T, stores Stores, log *callLog) error {
			_, err := NewBaseline(stores).Save(SaveInfo{Spec: tinySpec(), Net: tinyNet(t, 1), WithChecksums: true})
			return err
		}},
		{"paramupdate/derived", 3, func(t *testing.T, stores Stores, log *callLog) error {
			net := tinyNet(t, 1)
			base, err := NewParamUpdate(stores).Save(SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true})
			if err != nil {
				t.Fatal(err)
			}
			nn.StateDictOf(net).Entries()[0].Tensor.Data()[0] += 1
			log.reset()
			_, err = NewParamUpdate(stores).Save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: base.ID, WithChecksums: true})
			return err
		}},
		// The update's blob is written on a guess beside the first wave:
		// taken as it is, or written again after the diff, it waits for
		// no document.
		{"paramupdate/early", 3, func(t *testing.T, stores Stores, log *callLog) error {
			return saveWideUpdate(t, stores, log, "fc")
		}},
		{"paramupdate/rewrite", 3, func(t *testing.T, stores Stores, log *callLog) error {
			return saveWideUpdate(t, stores, log, "fc", "conv1")
		}},
		{"provenance/derived", 3, func(t *testing.T, stores Stores, log *callLog) error {
			net := tinyNet(t, 1)
			base, err := NewProvenance(stores).Save(SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true})
			if err != nil {
				t.Fatal(err)
			}
			rec := trainDerived(t, net, tinyDataset(t))
			log.reset()
			_, err = NewProvenance(stores).Save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: base.ID, WithChecksums: true, Provenance: rec})
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stores := testStores(t)
			log := &callLog{Store: stores.Meta, lag: 20 * time.Millisecond}
			stores.Meta = log
			if err := tc.save(t, stores, log); err != nil {
				t.Fatal(err)
			}
			if got := log.serialDepth(); got != tc.want {
				t.Errorf("serial depth of the save = %d round trips, want %d", got, tc.want)
			}
		})
	}
}

// saveWideUpdate saves a wide net's PUA snapshot, takes the weights of
// each of the layers written through Data() — changing only the first
// one's — resets log and saves the derived update: an update written
// early, and again when more than one layer is written.
func saveWideUpdate(t *testing.T, stores Stores, log *callLog, written ...string) error {
	t.Helper()
	net := wideNet(t, 1)
	base, err := NewParamUpdate(stores).Save(SaveInfo{Spec: wideSpec(), Net: net, WithChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	tensorOf(t, net, written[0]+".weight").Data()[0] += 1
	for _, layer := range written[1:] {
		tensorOf(t, net, layer+".weight").Data()
	}
	log.reset()
	_, err = NewParamUpdate(stores).Save(SaveInfo{Spec: wideSpec(), Net: net, BaseID: base.ID, WithChecksums: true})
	return err
}

// TestRecoverRoundTripBudget pins how many document round trips a cold
// recovery waits for in series. The requested model's environment document
// is read under the model's id beside the chain read, so a snapshot and a
// parameter update at the end of a chain cost 1; a provenance link's
// service document is named by its root document, so it costs 2.
func TestRecoverRoundTripBudget(t *testing.T) {
	cases := []struct {
		name string
		want int
		// save stores the model to recover and returns its id.
		save func(t *testing.T, stores Stores) string
	}{
		{"baseline", 1, func(t *testing.T, stores Stores) string {
			res, err := NewBaseline(stores).Save(SaveInfo{Spec: tinySpec(), Net: tinyNet(t, 1), WithChecksums: true})
			if err != nil {
				t.Fatal(err)
			}
			return res.ID
		}},
		{"paramupdate/depth3", 1, func(t *testing.T, stores Stores) string {
			net := tinyNet(t, 1)
			pua := NewParamUpdate(stores)
			id := ""
			for i := 0; i < 3; i++ {
				nn.StateDictOf(net).Entries()[0].Tensor.Data()[i] += 1
				res, err := pua.Save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: id, WithChecksums: true})
				if err != nil {
					t.Fatal(err)
				}
				id = res.ID
			}
			return id
		}},
		{"provenance/derived", 2, func(t *testing.T, stores Stores) string {
			net := tinyNet(t, 1)
			base, err := NewProvenance(stores).Save(SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true})
			if err != nil {
				t.Fatal(err)
			}
			rec := trainDerived(t, net, tinyDataset(t))
			res, err := NewProvenance(stores).Save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: base.ID, WithChecksums: true, Provenance: rec})
			if err != nil {
				t.Fatal(err)
			}
			return res.ID
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stores := testStores(t)
			id := tc.save(t, stores)
			log := &callLog{Store: stores.Meta, lag: 20 * time.Millisecond}
			stores.Meta = log
			if _, err := NewBaseline(stores).RecoverState(id, RecoverOptions{VerifyChecksums: true}); err != nil {
				t.Fatal(err)
			}
			if got := log.serialDepth(); got != tc.want {
				t.Errorf("serial depth of the recovery = %d round trips, want %d", got, tc.want)
			}
		})
	}
}

// A save stages at most one document per collection, since each is saved
// under the root id: a second one fails the transaction before anything
// is written.
func TestTxnRejectsTwoDocumentsOfOneCollection(t *testing.T) {
	stores := testStores(t)
	txn := beginSave(stores, ColModels, "")
	txn.stageDoc(ColEnvironments)
	txn.stageDoc(ColEnvironments)
	if err := txn.writeAhead(); err == nil {
		t.Fatal("a transaction staging two environment documents wrote ahead")
	}
	if ids, err := stores.Meta.IDs(ColStaging); err != nil || len(ids) != 0 {
		t.Fatalf("staging records %v (err %v), want none", ids, err)
	}
}

// slowBlobs delays every blob write and counts the writes in flight.
type slowBlobs struct {
	filestore.Blobs
	delay    time.Duration
	inflight atomic.Int32
}

func (b *slowBlobs) SaveAs(id string, r io.Reader) (int64, string, error) {
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	time.Sleep(b.delay)
	return b.Blobs.SaveAs(id, r)
}

// failingPuts fails every Put into one collection.
type failingPuts struct {
	docdb.Store
	col string
}

var errPutFailed = errors.New("injected put failure")

func (f failingPuts) Put(col, id string, doc docdb.Document) error {
	if col == f.col {
		return errPutFailed
	}
	return f.Store.Put(col, id, doc)
}

// A document write that fails while the wave's blobs are still being
// written must not roll back under them: the save returns only after every
// blob of the wave landed and was deleted again, leaving no orphan.
func TestFailedWaveRollsBackAfterSlowBlobs(t *testing.T) {
	stores := testStores(t)
	blobs := &slowBlobs{Blobs: stores.Files, delay: 50 * time.Millisecond}
	failing := Stores{Meta: failingPuts{stores.Meta, ColEnvironments}, Files: blobs}
	_, err := NewBaseline(failing).Save(SaveInfo{Spec: tinySpec(), Net: tinyNet(t, 2), WithChecksums: true})
	if !errors.Is(err, errPutFailed) {
		t.Fatalf("save error = %v, want the injected put failure", err)
	}
	if n := blobs.inflight.Load(); n != 0 {
		t.Fatalf("save returned with %d blob writes still in flight", n)
	}
	if ids, err := stores.Files.List(); err != nil || len(ids) != 0 {
		t.Fatalf("blobs left after rollback: %v (err %v)", ids, err)
	}
	for _, col := range []string{ColModels, ColEnvironments, ColLayerHashes, ColStaging} {
		if ids, err := stores.Meta.IDs(col); err != nil || len(ids) != 0 {
			t.Fatalf("documents left in %s after rollback: %v (err %v)", col, ids, err)
		}
	}
}

// What core reports a committed model owns is exactly what its save staged:
// the staging record, read at the "staged" crash point, names the same
// blobs and side documents as ReadModel does after the commit — for every
// kind of link, with and without the optional artifacts.
func TestOwnedIsWhatTheSaveStaged(t *testing.T) {
	ds := tinyDataset(t)
	// The adaptive policy writes a provenance link only for a dataset
	// smaller than the trainable parameters.
	small, err := dataset.Generate(dataset.Spec{Name: "owned", Images: 4, H: 8, W: 8, Classes: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// withOptState returns a record whose optimizer already has momentum
	// buffers, so the save stages an optimizer-state blob.
	withOptState := func(net nn.Module) *ProvenanceRecord {
		svc := tinyService(t, ds)
		if _, err := svc.Train(tinyNet(t, 77)); err != nil {
			t.Fatal(err)
		}
		rec, err := NewProvenanceRecord(svc)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.optState) == 0 {
			t.Fatal("trained optimizer has no state")
		}
		if _, err := rec.Train(net); err != nil {
			t.Fatal(err)
		}
		return rec
	}
	byRef := func(net nn.Module) *ProvenanceRecord {
		rec := trainDerived(t, net, ds)
		rec.SetExternalDatasetRef("warehouse/owned")
		return rec
	}
	cases := []struct {
		name    string
		svc     func(Stores) SaveService
		derived func(net nn.Module) *ProvenanceRecord // nil: save a root
		kind    string
	}{
		{"snapshot", func(s Stores) SaveService { return NewBaseline(s) }, nil, "snapshot"},
		{"snapshot+layerhashes", func(s Stores) SaveService { return NewParamUpdate(s) }, nil, "snapshot"},
		{"update", func(s Stores) SaveService { return NewParamUpdate(s) }, func(net nn.Module) *ProvenanceRecord {
			w, _ := nn.StateDictOf(net).Get("fc.weight")
			w.Data()[0] += 1
			return nil
		}, "update"},
		{"provenance", func(s Stores) SaveService { return NewProvenance(s) },
			func(net nn.Module) *ProvenanceRecord { return trainDerived(t, net, ds) }, "provenance"},
		{"provenance+optstate", func(s Stores) SaveService { return NewProvenance(s) }, withOptState, "provenance"},
		{"provenance+layerhashes", func(s Stores) SaveService { return NewAdaptive(s) },
			func(net nn.Module) *ProvenanceRecord { return trainDerived(t, net, small) }, "provenance"},
		{"provenance by reference", func(s Stores) SaveService { return NewProvenance(s) }, byRef, "provenance"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stores := testStores(t)
			net := tinyNet(t, 78)
			info := SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true}
			if tc.derived != nil {
				base, err := tc.svc(stores).Save(info)
				if err != nil {
					t.Fatal(err)
				}
				info.BaseID = base.ID
				info.Provenance = tc.derived(net)
			}
			var staged Owned
			capture := stores
			capture.Crash = func(point string) error {
				if point != "staged" {
					return nil
				}
				ids, err := stores.Meta.IDs(ColStaging)
				if err != nil || len(ids) != 1 {
					return fmt.Errorf("staging records %v: %v", ids, err)
				}
				var rec stagingDoc
				raw, err := stores.Meta.Get(ColStaging, ids[0])
				if err == nil {
					err = mapToDoc(raw, &rec)
				}
				staged = rec.Owned
				return err
			}
			res, err := tc.svc(capture).Save(info)
			if err != nil {
				t.Fatal(err)
			}
			m, err := ReadModel(stores.Meta, res.ID)
			if err != nil {
				t.Fatal(err)
			}
			if m.Kind != tc.kind {
				t.Fatalf("kind = %q, want %q", m.Kind, tc.kind)
			}
			if want, got := sortedOwned(staged), sortedOwned(m.Owns); !reflect.DeepEqual(got, want) {
				t.Fatalf("owned %+v, staged %+v", got, want)
			}
		})
	}
}

func sortedOwned(o Owned) Owned {
	o.Blobs = append([]string(nil), o.Blobs...)
	o.Docs = append([]DocRef(nil), o.Docs...)
	sort.Strings(o.Blobs)
	sort.Slice(o.Docs, func(i, j int) bool {
		if o.Docs[i].Collection != o.Docs[j].Collection {
			return o.Docs[i].Collection < o.Docs[j].Collection
		}
		return o.Docs[i].ID < o.Docs[j].ID
	})
	return o
}
