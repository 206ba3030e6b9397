package core

import (
	"errors"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
// and the root document after them are ordered, so a snapshot or a
// provenance link costs 3 (staging, one wave, root) and a parameter
// update 4 (its base model alongside the staging record, then the base's
// layer hashes, the wave, the root), plus the staging record's delete
// after the commit.
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
		{"paramupdate/derived", 4, func(t *testing.T, stores Stores, log *callLog) error {
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
