package docdb

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
)

// engine implements Store once over a table of encoded documents; MemStore
// and DiskStore differ only in their table. A Put encodes once, outside the
// lock, and every read decodes, so each returned document is built afresh.
type engine struct {
	mu sync.RWMutex
	t  table
}

// table holds encoded documents by collection and identifier. The engine
// calls put and del under its write lock and the rest under its read lock.
// get and del return ErrNotFound for a missing document or collection; ids
// lists in lexicographic order; stats counts the collections ever written,
// their documents and the bytes of their encodings.
type table interface {
	put(collection, id string, b []byte) error
	get(collection, id string) ([]byte, error)
	del(collection, id string) error
	ids(collection string) ([]string, error)
	stats() (Stats, error)
}

// Insert implements Store.
func (e *engine) Insert(collection string, doc Document) (string, error) {
	id := NewID()
	return id, e.Put(collection, id, doc)
}

// Put implements Store.
func (e *engine) Put(collection, id string, doc Document) error {
	b, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("docdb: marshaling document: %w", err)
	}
	//mmlint:ignore lockheld whole-store serialization of writes is the engine's consistency model; a disk table writes one small file under it
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.t.put(collection, id, b)
}

// Get implements Store.
func (e *engine) Get(collection, id string) (Document, error) {
	//mmlint:ignore lockheld readers share the RLock while a disk table reads one small document file; only writers wait
	e.mu.RLock()
	b, err := e.t.get(collection, id)
	e.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	return decode(collection, id, b)
}

func decode(collection, id string, b []byte) (Document, error) {
	var doc Document
	if err := Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("docdb: decoding document %s/%s: %w", collection, id, err)
	}
	return doc, nil
}

// Chain implements Store. A document's size is its encoding's, the bytes
// it takes in a response frame.
func (e *engine) Chain(collection, id, next, stop string) ([]Document, error) {
	//mmlint:ignore lockheld readers share the RLock while a disk table reads one chain of small document files; only writers wait
	e.mu.RLock()
	defer e.mu.RUnlock()
	return WalkChain(id, next, stop, func(id string) (Document, int, error) {
		b, err := e.t.get(collection, id)
		if err != nil {
			return nil, 0, err
		}
		doc, err := decode(collection, id, b)
		return doc, len(b), err
	})
}

// NewIDNear implements Store: one engine is one placement.
func (e *engine) NewIDNear(string, string) string { return NewID() }

// Delete implements Store.
func (e *engine) Delete(collection, id string) error {
	//mmlint:ignore lockheld whole-store serialization of writes is the engine's consistency model; a disk table removes one file under it
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.t.del(collection, id)
}

// Find implements Store. It reads the listed documents one at a time, so
// one deleted after the listing is skipped.
func (e *engine) Find(collection string, eq Document) ([]Document, error) {
	ids, err := e.IDs(collection)
	if err != nil {
		return nil, err
	}
	var out []Document
	for _, id := range ids {
		doc, err := e.Get(collection, id)
		if errors.Is(err, ErrNotFound) {
			continue
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

// IDs implements Store.
func (e *engine) IDs(collection string) ([]string, error) {
	//mmlint:ignore lockheld readers share the RLock while a disk table lists one collection directory; only writers wait
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.t.ids(collection)
}

// Stats implements Store.
func (e *engine) Stats() (Stats, error) {
	//mmlint:ignore lockheld readers share the RLock while a disk table walks the store tree; a consistent point-in-time count needs writers excluded
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.t.stats()
}

// Close implements Store. Neither table holds anything to release.
func (e *engine) Close() error { return nil }
