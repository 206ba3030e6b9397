package docdb

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/fsx"
)

// DiskStore is a directory-backed document store. Every document is one JSON
// file at <root>/<collection>/<id>.json, which makes stored metadata easy to
// inspect and gives an honest on-disk byte count for the storage-consumption
// experiments.
type DiskStore struct {
	root string
	mu   sync.RWMutex
}

// OpenDisk opens (creating if necessary) a disk store rooted at dir.
func OpenDisk(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("docdb: creating root: %w", err)
	}
	return &DiskStore{root: dir}, nil
}

var _ Store = (*DiskStore)(nil)

func (s *DiskStore) colDir(collection string) (string, error) {
	if collection == "" || strings.ContainsAny(collection, "/\\") {
		return "", fmt.Errorf("docdb: invalid collection name %q", collection)
	}
	return filepath.Join(s.root, collection), nil
}

func (s *DiskStore) docPath(collection, id string) (string, error) {
	dir, err := s.colDir(collection)
	if err != nil {
		return "", err
	}
	if id == "" || strings.ContainsAny(id, "/\\.") {
		return "", fmt.Errorf("docdb: invalid document id %q", id)
	}
	return filepath.Join(dir, id+".json"), nil
}

// Insert implements Store.
func (s *DiskStore) Insert(collection string, doc Document) (string, error) {
	id := NewID()
	return id, s.Put(collection, id, doc)
}

// Put implements Store.
func (s *DiskStore) Put(collection, id string, doc Document) error {
	//mmlint:ignore lockheld whole-store serialization over small per-document files is this engine's consistency model; see the DiskStore doc comment
	s.mu.Lock()
	defer s.mu.Unlock()
	path, err := s.docPath(collection, id)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("docdb: creating collection: %w", err)
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("docdb: marshaling document: %w", err)
	}
	// Stage in a uniquely named temp file and fsync before the rename:
	// the renamed-in document must never be observable with truncated
	// content after a crash, and concurrent writers (two stores on one
	// directory) must never interleave into a shared temp file.
	f, err := os.CreateTemp(filepath.Dir(path), id+".*.tmp")
	if err != nil {
		return fmt.Errorf("docdb: staging document: %w", err)
	}
	tmp := f.Name()
	_, werr := f.Write(b)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return fmt.Errorf("docdb: writing document: %w", werr)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("docdb: committing document: %w", err)
	}
	// The rename is an entry in the collection directory; without flushing
	// it a power loss can forget the committed document even though its
	// content was fsynced above.
	if err := fsx.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("docdb: syncing collection directory: %w", err)
	}
	return nil
}

// Get implements Store.
func (s *DiskStore) Get(collection, id string) (Document, error) {
	//mmlint:ignore lockheld readers share the RLock while reading one small document file; only writers wait
	s.mu.RLock()
	defer s.mu.RUnlock()
	doc, _, err := s.read(collection, id)
	return doc, err
}

// Chain implements Store. A document's size is its file's.
func (s *DiskStore) Chain(collection, id, next, stop string) ([]Document, error) {
	//mmlint:ignore lockheld readers share the RLock while reading one chain of small document files; only writers wait
	s.mu.RLock()
	defer s.mu.RUnlock()
	return WalkChain(id, next, stop, func(id string) (Document, int, error) { return s.read(collection, id) })
}

// read loads one document and its size on disk. The caller holds s.mu.
func (s *DiskStore) read(collection, id string) (Document, int, error) {
	path, err := s.docPath(collection, id)
	if err != nil {
		return nil, 0, err
	}
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, 0, ErrNotFound
	}
	if err != nil {
		return nil, 0, fmt.Errorf("docdb: reading document: %w", err)
	}
	var doc Document
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, 0, fmt.Errorf("docdb: decoding document %s/%s: %w", collection, id, err)
	}
	return doc, len(b), nil
}

// NewIDNear implements Store: one directory is one placement.
func (s *DiskStore) NewIDNear(string, string) string { return NewID() }

// Delete implements Store.
func (s *DiskStore) Delete(collection, id string) error {
	//mmlint:ignore lockheld whole-store serialization over small per-document files is this engine's consistency model; see the DiskStore doc comment
	s.mu.Lock()
	defer s.mu.Unlock()
	path, err := s.docPath(collection, id)
	if err != nil {
		return err
	}
	err = os.Remove(path)
	if os.IsNotExist(err) {
		return ErrNotFound
	}
	return err
}

// Find implements Store.
func (s *DiskStore) Find(collection string, eq Document) ([]Document, error) {
	ids, err := s.IDs(collection)
	if err != nil {
		return nil, err
	}
	var out []Document
	for _, id := range ids {
		doc, err := s.Get(collection, id)
		if err == ErrNotFound {
			continue // raced with a delete
		}
		if err != nil {
			return nil, err
		}
		if matches(doc, eq) {
			out = append(out, doc)
		}
	}
	return out, nil
}

// IDs implements Store. os.ReadDir sorts entries by name, so identifiers
// come back in the lexicographic order the Store contract requires.
func (s *DiskStore) IDs(collection string) ([]string, error) {
	//mmlint:ignore lockheld readers share the RLock while listing one collection directory; only writers wait
	s.mu.RLock()
	defer s.mu.RUnlock()
	dir, err := s.colDir(collection)
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("docdb: listing collection: %w", err)
	}
	var ids []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".json") {
			ids = append(ids, strings.TrimSuffix(name, ".json"))
		}
	}
	return ids, nil
}

// Stats implements Store.
func (s *DiskStore) Stats() (Stats, error) {
	//mmlint:ignore lockheld readers share the RLock while walking the store tree; a consistent point-in-time count needs writers excluded
	s.mu.RLock()
	defer s.mu.RUnlock()
	var st Stats
	entries, err := os.ReadDir(s.root)
	if err != nil {
		return Stats{}, fmt.Errorf("docdb: listing root: %w", err)
	}
	for _, col := range entries {
		if !col.IsDir() {
			continue
		}
		st.Collections++
		docs, err := os.ReadDir(filepath.Join(s.root, col.Name()))
		if err != nil {
			return Stats{}, err
		}
		for _, d := range docs {
			if !strings.HasSuffix(d.Name(), ".json") {
				continue
			}
			info, err := d.Info()
			if err != nil {
				return Stats{}, err
			}
			st.Documents++
			st.SizeBytes += info.Size()
		}
	}
	return st, nil
}

// Close implements Store. It is a no-op for the disk engine.
func (s *DiskStore) Close() error { return nil }
