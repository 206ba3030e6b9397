// Package datamgr implements the dedicated external dataset manager the
// paper defers to for its "Managing Data sets" discussion (Section 3.3,
// citing Agrawal et al.'s data platform): "If a dedicated external system
// manages these datasets ... we do not have to compress the dataset but
// only save the reference to the managed dataset as part of the provenance
// data."
//
// The manager stores dataset archives content-addressed: publishing the
// same dataset twice stores one archive and bumps a reference count, so the
// repeated U3 saves of an evaluation flow — which all train on the same
// dataset — consume its storage once instead of once per model. References
// are released when models are deleted; an archive disappears with its last
// reference.
package datamgr

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/dataset"
	"repro/internal/filestore"
)

// ErrUnknownRef is returned for references the manager has never issued (or
// has already fully released).
var ErrUnknownRef = errors.New("datamgr: unknown dataset reference")

// Manager is a content-addressed dataset warehouse. It is safe for
// concurrent use.
type Manager struct {
	mu    sync.Mutex
	files filestore.Blobs
	// refs maps content hashes to entry bookkeeping.
	refs map[string]*entry
}

type entry struct {
	blobID   string
	refCount int
	name     string
	size     int64
}

// New creates a manager persisting archives in files.
func New(files filestore.Blobs) *Manager {
	return &Manager{files: files, refs: make(map[string]*entry)}
}

// Publish stores ds (or finds its existing archive) and returns a stable
// content reference. The boolean reports whether the dataset was
// deduplicated against an existing archive. Each Publish acquires one
// reference; pair it with Release.
func (m *Manager) Publish(ds *dataset.Dataset) (ref string, dedup bool, err error) {
	hash := ds.Hash()
	m.mu.Lock()
	if e, ok := m.refs[hash]; ok {
		e.refCount++
		m.mu.Unlock()
		return hash, true, nil
	}
	m.mu.Unlock()

	// Archive outside the lock; publishing is idempotent per content hash.
	blobID := filestore.NewID()
	size, _, err := m.files.SaveAs(blobID, filestore.Source(ds.WriteArchive))
	if err != nil {
		return "", false, fmt.Errorf("datamgr: archiving dataset: %w", err)
	}

	m.mu.Lock()
	if e, ok := m.refs[hash]; ok {
		// Lost the race: another publisher stored it first. Drop our
		// duplicate archive after unlocking — deleting a blob is file I/O
		// and must not serialize every other Publish/Release behind it.
		e.refCount++
		m.mu.Unlock()
		m.files.Delete(blobID)
		return hash, true, nil
	}
	m.refs[hash] = &entry{blobID: blobID, refCount: 1, name: ds.Spec.Name, size: size}
	m.mu.Unlock()
	return hash, false, nil
}

// Resolve loads the dataset behind a reference. Use it as the
// core.Provenance.ResolveDataset hook.
func (m *Manager) Resolve(ref string) (*dataset.Dataset, error) {
	m.mu.Lock()
	e, ok := m.refs[ref]
	m.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownRef, ref)
	}
	rc, err := m.files.Open(e.blobID)
	if err != nil {
		return nil, fmt.Errorf("datamgr: opening archive for %s: %w", ref, err)
	}
	defer rc.Close()
	ds, err := dataset.ReadArchive(rc)
	if err != nil {
		return nil, fmt.Errorf("datamgr: reading archive for %s: %w", ref, err)
	}
	if ds.Hash() != ref {
		return nil, fmt.Errorf("datamgr: archive for %s failed content verification", ref)
	}
	return ds, nil
}

// AddRef acquires an additional reference (e.g. when a second model starts
// depending on an already-published dataset).
func (m *Manager) AddRef(ref string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.refs[ref]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownRef, ref)
	}
	e.refCount++
	return nil
}

// Release drops one reference; the archive is deleted with the last one.
func (m *Manager) Release(ref string) error {
	m.mu.Lock()
	e, ok := m.refs[ref]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrUnknownRef, ref)
	}
	e.refCount--
	if e.refCount > 0 {
		m.mu.Unlock()
		return nil
	}
	delete(m.refs, ref)
	m.mu.Unlock()
	// The entry is already unpublished; deleting the blob is file I/O and
	// happens outside the lock. A concurrent Publish of the same content
	// re-archives under a fresh blob ID, so the unlocked delete cannot race
	// with a reader of this archive.
	if err := m.files.Delete(e.blobID); err != nil && !errors.Is(err, filestore.ErrNotFound) {
		return err
	}
	return nil
}

// Info describes one managed dataset.
type Info struct {
	Ref      string `json:"ref"`
	Name     string `json:"name"`
	Size     int64  `json:"size"`
	RefCount int    `json:"ref_count"`
}

// List returns the managed datasets sorted by reference.
func (m *Manager) List() []Info {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Info, 0, len(m.refs))
	for ref, e := range m.refs {
		out = append(out, Info{Ref: ref, Name: e.name, Size: e.size, RefCount: e.refCount})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Ref < out[j].Ref })
	return out
}

// Stats summarizes the warehouse.
type Stats struct {
	Datasets   int   `json:"datasets"`
	TotalBytes int64 `json:"total_bytes"`
	TotalRefs  int   `json:"total_refs"`
	// DedupSavedBytes is the storage avoided by deduplication: bytes that
	// would have been stored had every reference kept its own copy.
	DedupSavedBytes int64 `json:"dedup_saved_bytes"`
}

// Stats returns warehouse statistics.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	var st Stats
	for _, e := range m.refs {
		st.Datasets++
		st.TotalBytes += e.size
		st.TotalRefs += e.refCount
		st.DedupSavedBytes += int64(e.refCount-1) * e.size
	}
	return st
}
