package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/docdb"
	"repro/internal/filestore"
	"repro/internal/obs"
)

// Transactional saves. A save is 3–6 independent writes (blobs plus side
// documents plus the root model document); without coordination a crash or
// error mid-save leaks orphaned artifacts, and a crash between a side
// insert and the root insert leaves references that only surface later as
// confusing recovery failures. saveTxn makes every save all-or-nothing with
// a write-ahead commit record. Identifiers are generated client-side, so a
// save has exactly two ordering constraints — the staging record lands
// before any artifact, the root document lands after every artifact — and
// it waits for nothing else in between:
//
//  1. Stage ‖ reads: every identifier the save will write (blob ids and
//     document ids) is recorded in a staging document in ColStaging,
//     written *before* any artifact. The reads the save needs that do not
//     depend on it (a parameter update's base model and layer hashes) are
//     in flight at the same time. From the record on, the store always
//     names every byte the save may have put on disk.
//  2. Wave: blobs and side documents are written under their staged ids,
//     all at once (together). Each is individually durable (temp file +
//     fsync + rename) but the model does not exist yet — the root document
//     is absent. The wave is joined before anything else happens, so a
//     rollback never races a write still in flight. A parameter update's
//     blob may start earlier, on a guess, the moment the staging record is
//     durable (see writeUpdate); it is joined as a step of the wave, and
//     settled before any rollback.
//  3. Commit: one atomic root-document insert makes the model visible,
//     then the staging record is deleted. The root insert is the commit
//     point: before it, rolling back the staged ids restores the store
//     byte-identically; after it, the save is durable and only the
//     staging record remains to be swept.
//
// A side document — environment, layer hashes, service — is saved under
// its model's root id, in its own collection, so a reader that knows a
// model's id knows its side documents' ids before the root document
// arrives. The root document still names them, and the name is what
// counts: a store written before side documents shared the root id names
// other ids, and a reader whose early read missed reads by the name.
//
// Serial depth in document round trips, the staging delete aside: 3 for
// every save — a snapshot or provenance link (staging, wave, root) and a
// parameter update alike (its base model ‖ the base's layer hashes ‖
// staging, the wave, the root).
//
// Rollback (on a live error path) and RecoverOrphans (after a crash)
// delete artifacts before the staging record, so an interrupted cleanup
// still leaves the record behind for the next pass — cleanup is
// idempotent, never lossy. RecoverOrphans also removes the temp files of
// the staged blob ids (Blobs.DeleteTemps): a process killed inside SaveAs
// leaves one behind that only the staging record, through the id, names.
//
// RecoverOrphans must only run while no save is in flight against the same
// stores (startup, or an offline fsck): an in-flight save is
// indistinguishable from a crashed one by its staging record alone.

// ColStaging holds the write-ahead commit records of in-flight saves. An
// entry in this collection whose root document exists is a completed save
// awaiting cleanup; one whose root document is missing is a crashed save
// whose artifacts must be rolled back.
const ColStaging = "txn_staging"

// ErrInjectedCrash is the sentinel a Stores.Crash hook returns to simulate
// a process death at a crash point: the save abandons its transaction
// without rolling back, leaving the store exactly as a kill -9 at that
// instant would. RecoverOrphans is then responsible for cleanup.
var ErrInjectedCrash = errors.New("core: injected crash")

// CrashFn is a deterministic crash-point hook (see Stores.Crash). It
// receives a stable point name ("staged", "blob:params", "doc:env",
// "commit.before", "commit.window", ...) and returns nil to continue or an
// error (conventionally wrapping ErrInjectedCrash) to die there. The writes
// of one wave reach their points concurrently and in no fixed order, so a
// hook must be safe for concurrent use.
type CrashFn func(point string) error

// Transaction metrics. orphans_reclaimed counts artifacts (blobs plus
// documents) deleted by RecoverOrphans; rollback_errors counts best-effort
// cleanup deletions that failed and were left for the next GC pass.
var (
	mTxnCommits      = obs.Default().Counter("core.txn.commits")
	mTxnRollbacks    = obs.Default().Counter("core.txn.rollbacks")
	mTxnOrphans      = obs.Default().Counter("core.txn.orphans_reclaimed")
	mTxnRollbackErrs = obs.Default().Counter("core.txn.rollback_errors")
)

// DocRef names one side document.
type DocRef struct {
	Collection string `json:"collection"`
	ID         string `json:"id"`
}

// Owned is what a model owns besides its root document. A save stages
// exactly what its committed model then owns, so the staging record and
// what deleting a model removes share the shape.
type Owned struct {
	Blobs []string `json:"blobs,omitempty"`
	Docs  []DocRef `json:"docs,omitempty"`
}

// stagingDoc is the write-ahead commit record. It lists every identifier
// the save may have written and the root document whose presence marks the
// save committed.
type stagingDoc struct {
	RootCollection string `json:"root_collection"`
	RootID         string `json:"root_id"`
	Owned
}

// saveTxn is one in-flight transactional save; each save creates its own.
// Staging and commit run on the save's goroutine; the writes of a wave
// (saveBlob, putDoc) run concurrently once the staging record is durable.
type saveTxn struct {
	stores Stores
	id     string // staging record id
	rec    stagingDoc
	blobs  map[string]bool // staged blob ids
	docs   map[DocRef]bool // staged side documents
	// flushed is set once the staging record is durable; writes are
	// rejected before that, enforcing the write-ahead ordering.
	flushed   bool
	committed bool
	// crashed is set when the Crash hook fired, possibly from a wave's
	// goroutine: the transaction must then be abandoned in place, never
	// rolled back.
	crashed atomic.Bool
}

// beginSave starts a transaction that will commit into rootCol. The root
// document's id is drawn to be placed beside document near, the base of a
// derived model, so that a lineage's root documents share a shard and a
// recovery reads its chain in one call. Nothing is written until
// writeAhead.
func beginSave(stores Stores, rootCol, near string) *saveTxn {
	return &saveTxn{
		stores: stores,
		id:     docdb.NewID(),
		rec:    stagingDoc{RootCollection: rootCol, RootID: stores.Meta.NewIDNear(rootCol, near)},
		blobs:  make(map[string]bool),
		docs:   make(map[DocRef]bool),
	}
}

// stageBlob allocates and registers a blob identifier. Must precede
// writeAhead.
func (t *saveTxn) stageBlob() string {
	id := filestore.NewID()
	t.rec.Blobs = append(t.rec.Blobs, id)
	t.blobs[id] = true
	return id
}

// stageDoc registers the side document of col, which is saved under the
// root id: a save stages at most one document per collection. Must precede
// writeAhead.
func (t *saveTxn) stageDoc(col string) string {
	ref := DocRef{Collection: col, ID: t.rec.RootID}
	t.rec.Docs = append(t.rec.Docs, ref)
	t.docs[ref] = true
	return ref.ID
}

// writeAhead makes the staging record durable. Every artifact write below
// requires it; a crash at any later point leaves a record naming exactly
// what may exist.
func (t *saveTxn) writeAhead() error {
	if len(t.docs) != len(t.rec.Docs) {
		return fmt.Errorf("core: internal: a save staged two documents of one collection")
	}
	doc, _, err := docToMap(t.rec)
	if err != nil {
		return err
	}
	if err := t.stores.Meta.Put(ColStaging, t.id, doc); err != nil {
		return fmt.Errorf("core: writing staging record: %w", err)
	}
	t.flushed = true
	return t.crash("staged")
}

// crash runs the injected crash hook, if any, and records that the
// transaction died so end() leaves the store untouched.
func (t *saveTxn) crash(point string) error {
	if t.stores.Crash == nil {
		return nil
	}
	if err := t.stores.Crash(point); err != nil {
		t.crashed.Store(true)
		return err
	}
	return nil
}

// saveBlob streams r into the staged blob id and fires the crash point
// after the write. It touches only the file store (it is reachable from
// the hashpurity entry point saveStateDict, which must not grow paths into
// the metadata store), so the staging record must already be durable.
func (t *saveTxn) saveBlob(id, label string, r io.Reader) (int64, string, error) {
	if !t.flushed || !t.blobs[id] {
		return 0, "", fmt.Errorf("core: internal: blob %s written outside its transaction's staging record", id)
	}
	size, hash, err := t.stores.Files.SaveAs(id, r)
	if err != nil {
		return 0, "", err
	}
	if err := t.crash("blob:" + label); err != nil {
		return 0, "", err
	}
	return size, hash, nil
}

// putDoc writes a staged side document and fires the crash point after the
// write.
func (t *saveTxn) putDoc(col, id, label string, doc docdb.Document) error {
	if !t.flushed || !t.docs[DocRef{col, id}] {
		return fmt.Errorf("core: internal: document %s/%s written outside its transaction's staging record", col, id)
	}
	if err := t.stores.Meta.Put(col, id, doc); err != nil {
		return err
	}
	return t.crash("doc:" + label)
}

// commit makes the save durable with the single atomic root-document
// insert, then deletes the staging record. A failure (or crash) after the
// root insert leaves a committed save plus a stale staging record, which
// RecoverOrphans recognizes and sweeps without touching the artifacts.
func (t *saveTxn) commit(ctx context.Context, rootDoc docdb.Document) (string, error) {
	_, sp := obs.StartSpan(ctx, "save.commit")
	defer sp.End()
	if !t.flushed {
		return "", fmt.Errorf("core: internal: commit without a staged transaction")
	}
	if err := t.crash("commit.before"); err != nil {
		return "", err
	}
	if err := t.stores.Meta.Put(t.rec.RootCollection, t.rec.RootID, rootDoc); err != nil {
		return "", fmt.Errorf("core: committing model document: %w", err)
	}
	t.committed = true
	mTxnCommits.Inc()
	sp.Arg("model", t.rec.RootID)
	if err := t.crash("commit.window"); err != nil {
		return t.rec.RootID, err
	}
	if err := t.stores.Meta.Delete(ColStaging, t.id); err != nil && !errors.Is(err, docdb.ErrNotFound) {
		// The save is durable; the stale record only costs the next
		// RecoverOrphans pass one sweep.
		mTxnRollbackErrs.Inc()
	}
	return t.rec.RootID, nil
}

// end finalizes the transaction on the save path's way out. Committed
// saves are durable and left alone; a simulated crash must leave the store
// exactly as a dead process would, so it skips rollback too; every other
// error rolls the staged artifacts back so a failed save leaks nothing.
// Every wave has been joined by then (together returns only once all its
// steps have), so no write can land after the rollback deleted its id.
func (t *saveTxn) end(err error) {
	if t.committed || err == nil {
		return
	}
	if t.crashed.Load() || errors.Is(err, ErrInjectedCrash) {
		return
	}
	t.rollback()
}

// rollback deletes every staged artifact, then the staging record —
// artifacts first, so an interrupted rollback still leaves the record for
// RecoverOrphans. Deletions are best-effort: a missing artifact was simply
// never written (or already swept), and a failing one is counted and left
// for the next GC pass.
func (t *saveTxn) rollback() {
	if !t.flushed {
		return // nothing durable was ever written
	}
	for _, b := range t.rec.Blobs {
		if err := t.stores.Files.Delete(b); err != nil && !errors.Is(err, filestore.ErrNotFound) {
			mTxnRollbackErrs.Inc()
		}
	}
	for _, d := range t.rec.Docs {
		if err := t.stores.Meta.Delete(d.Collection, d.ID); err != nil && !errors.Is(err, docdb.ErrNotFound) {
			mTxnRollbackErrs.Inc()
		}
	}
	if err := t.stores.Meta.Delete(ColStaging, t.id); err != nil && !errors.Is(err, docdb.ErrNotFound) {
		mTxnRollbackErrs.Inc()
	}
	mTxnRollbacks.Inc()
}

// OrphanReport summarizes one recovery/GC pass over the staging
// collection.
type OrphanReport struct {
	// Scanned counts staging records examined.
	Scanned int `json:"scanned"`
	// Completed counts records whose root document landed: the save is
	// durable and only the record itself is (or would be) dropped.
	Completed int `json:"completed"`
	// RolledBack counts records whose root document never landed: crashed
	// saves whose staged artifacts are (or would be) deleted.
	RolledBack int `json:"rolled_back"`
	// BlobsReclaimed and DocsReclaimed count the artifacts the rolled-back
	// records named that actually existed and were (or would be) deleted.
	BlobsReclaimed int `json:"blobs_reclaimed"`
	DocsReclaimed  int `json:"docs_reclaimed"`
	// BytesReclaimed is the total size of the reclaimed blobs (documents
	// are not sized; their reclaimed bytes are negligible next to
	// parameter blobs).
	BytesReclaimed int64 `json:"bytes_reclaimed"`
}

// String renders the report the way mmctl fsck and mmserver startup log it.
func (r OrphanReport) String() string {
	return fmt.Sprintf("staging records: %d (completed %d, rolled back %d); reclaimed %d blob(s) / %d doc(s), %d B",
		r.Scanned, r.Completed, r.RolledBack, r.BlobsReclaimed, r.DocsReclaimed, r.BytesReclaimed)
}

// RecoverOrphans is the crash-recovery/GC pass: it sweeps the staging
// collection, finishes the cleanup of committed saves (dropping their
// stale records), and rolls back crashed ones by deleting the orphaned
// blobs and documents their records name. It is idempotent — re-running
// it, or re-running after an interrupted pass, converges on the same
// store. It must not run concurrently with saves against the same stores;
// call it at startup (mmserver) or offline (mmctl fsck). It is the only
// collector of what a staging record names: the catalog's collector, which
// may run beside saves, keeps every blob StagedBlobs lists.
func RecoverOrphans(stores Stores) (OrphanReport, error) {
	return sweepStaging(stores, true)
}

// ScanOrphans is RecoverOrphans without the deletions: it reports what a
// recovery pass would do. Blob sizes are still read to fill
// BytesReclaimed.
func ScanOrphans(stores Stores) (OrphanReport, error) {
	return sweepStaging(stores, false)
}

// StagedBlobs lists the blobs the staging records name: those of saves in
// flight, crashed, or committed and not yet swept.
func StagedBlobs(meta docdb.Store) (blobs []string, err error) {
	err = eachStagingRecord(meta, func(_ string, rec stagingDoc) error {
		blobs = append(blobs, rec.Blobs...)
		return nil
	})
	return blobs, err
}

// eachStagingRecord calls fn on every staging record, stopping at the
// first error. A record deleted after the listing — its save committed and
// dropped it, or a concurrent sweep did — is skipped.
func eachStagingRecord(meta docdb.Store, fn func(id string, rec stagingDoc) error) error {
	ids, err := meta.IDs(ColStaging)
	if err != nil {
		return fmt.Errorf("core: listing staging records: %w", err)
	}
	for _, id := range ids {
		rec, err := loadDoc[stagingDoc](meta, ColStaging, id)
		if errors.Is(err, docdb.ErrNotFound) {
			continue
		}
		if err != nil {
			return fmt.Errorf("core: staging record %s: %w", id, err)
		}
		if err := fn(id, rec); err != nil {
			return err
		}
	}
	return nil
}

func sweepStaging(stores Stores, apply bool) (OrphanReport, error) {
	var rep OrphanReport
	err := eachStagingRecord(stores.Meta, func(id string, rec stagingDoc) error {
		rep.Scanned++

		_, err := stores.Meta.Get(rec.RootCollection, rec.RootID)
		switch {
		case err == nil:
			// Late crash: the root document landed, the save is complete.
			// Everything the record names is referenced — keep it all and
			// drop only the record.
			rep.Completed++
			if apply {
				if derr := stores.Meta.Delete(ColStaging, id); derr != nil && !errors.Is(derr, docdb.ErrNotFound) {
					return derr
				}
			}
		case errors.Is(err, docdb.ErrNotFound):
			// The save never committed: everything the record names is an
			// orphan. Artifacts go first, the record last, so an
			// interrupted pass re-runs cleanly (deleting already-deleted
			// artifacts is a no-op).
			rep.RolledBack++
			for _, b := range rec.Blobs {
				// A save killed inside SaveAs leaves the blob's temp file,
				// which nothing else names. Never a blob, so not counted
				// in the report.
				if apply {
					if derr := stores.Files.DeleteTemps(b); derr != nil {
						return derr
					}
				}
				size, serr := stores.Files.Size(b)
				if errors.Is(serr, filestore.ErrNotFound) {
					continue // never written, or reclaimed by an earlier pass
				}
				if serr != nil {
					return serr
				}
				if apply {
					if derr := stores.Files.Delete(b); derr != nil && !errors.Is(derr, filestore.ErrNotFound) {
						return derr
					}
				}
				rep.BlobsReclaimed++
				rep.BytesReclaimed += size
			}
			for _, d := range rec.Docs {
				if apply {
					derr := stores.Meta.Delete(d.Collection, d.ID)
					if errors.Is(derr, docdb.ErrNotFound) {
						continue
					}
					if derr != nil {
						return derr
					}
				} else {
					if _, gerr := stores.Meta.Get(d.Collection, d.ID); gerr != nil {
						continue
					}
				}
				rep.DocsReclaimed++
			}
			if apply {
				if derr := stores.Meta.Delete(ColStaging, id); derr != nil && !errors.Is(derr, docdb.ErrNotFound) {
					return derr
				}
				mTxnRollbacks.Inc()
			}
		default:
			return err
		}
		return nil
	})
	if err == nil && apply {
		mTxnOrphans.Add(int64(rep.BlobsReclaimed + rep.DocsReclaimed))
	}
	return rep, err
}
