package docdb

import (
	"encoding/json"
	"sort"
	"sync"
)

// MemStore is an in-memory document store. It is the engine the embedded
// server uses and is also handy for tests.
type MemStore struct {
	mu          sync.RWMutex
	collections map[string]map[string]Document
}

// NewMemStore creates an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{collections: make(map[string]map[string]Document)}
}

var _ Store = (*MemStore)(nil)

// Insert implements Store.
func (s *MemStore) Insert(collection string, doc Document) (string, error) {
	id := NewID()
	return id, s.Put(collection, id, doc)
}

// Put implements Store.
func (s *MemStore) Put(collection, id string, doc Document) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	col, ok := s.collections[collection]
	if !ok {
		col = make(map[string]Document)
		s.collections[collection] = col
	}
	col[id] = clone(doc)
	return nil
}

// Get implements Store.
func (s *MemStore) Get(collection, id string) (Document, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	col, ok := s.collections[collection]
	if !ok {
		return nil, ErrNotFound
	}
	doc, ok := col[id]
	if !ok {
		return nil, ErrNotFound
	}
	return clone(doc), nil
}

// Chain implements Store. A document's size is its JSON encoding, the
// bytes it takes in a response frame.
func (s *MemStore) Chain(collection, id, next, stop string) ([]Document, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	col := s.collections[collection]
	return WalkChain(id, next, stop, func(id string) (Document, int, error) {
		doc, ok := col[id]
		if !ok {
			return nil, 0, ErrNotFound
		}
		b, err := json.Marshal(doc)
		if err != nil {
			return nil, 0, err
		}
		return clone(doc), len(b), nil
	})
}

// NewIDNear implements Store: one engine is one placement.
func (s *MemStore) NewIDNear(string, string) string { return NewID() }

// Delete implements Store.
func (s *MemStore) Delete(collection, id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	col, ok := s.collections[collection]
	if !ok {
		return ErrNotFound
	}
	if _, ok := col[id]; !ok {
		return ErrNotFound
	}
	delete(col, id)
	return nil
}

// Find implements Store. Results come back in lexicographic identifier
// order — the same order the disk engine's directory listing produces — so
// switching engines never changes observable result ordering.
func (s *MemStore) Find(collection string, eq Document) ([]Document, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	col := s.collections[collection]
	ids := sortedKeys(col)
	var out []Document
	for _, id := range ids {
		if doc := col[id]; matches(doc, eq) {
			out = append(out, clone(doc))
		}
	}
	return out, nil
}

// IDs implements Store. Identifiers are returned in lexicographic order to
// match the disk engine.
func (s *MemStore) IDs(collection string) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return sortedKeys(s.collections[collection]), nil
}

// sortedKeys returns the map's keys in lexicographic order.
func sortedKeys(col map[string]Document) []string {
	ids := make([]string, 0, len(col))
	for id := range col {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Stats implements Store.
func (s *MemStore) Stats() (Stats, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var st Stats
	st.Collections = len(s.collections)
	//mmlint:ignore maprange-determinism summing counts and sizes is iteration-order independent; nothing here is persisted
	for _, col := range s.collections {
		st.Documents += len(col)
		//mmlint:ignore maprange-determinism summing counts and sizes is iteration-order independent; nothing here is persisted
		for _, doc := range col {
			b, err := json.Marshal(doc)
			if err != nil {
				return Stats{}, err
			}
			st.SizeBytes += int64(len(b))
		}
	}
	return st, nil
}

// Close implements Store. It is a no-op for the in-memory engine.
func (s *MemStore) Close() error { return nil }
