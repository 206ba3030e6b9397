package docdb

import "sort"

// MemStore is an in-memory document store. It is the engine the embedded
// server uses and is also handy for tests.
type MemStore struct{ engine }

// NewMemStore creates an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{engine{t: memTable{}}}
}

var _ Store = (*MemStore)(nil)

// memTable holds each collection as a map from identifier to encoding. A
// stored encoding is never written again, so get hands it out uncopied.
type memTable map[string]map[string][]byte

func (t memTable) put(collection, id string, b []byte) error {
	col, ok := t[collection]
	if !ok {
		col = make(map[string][]byte)
		t[collection] = col
	}
	col[id] = b
	return nil
}

func (t memTable) get(collection, id string) ([]byte, error) {
	b, ok := t[collection][id]
	if !ok {
		return nil, ErrNotFound
	}
	return b, nil
}

func (t memTable) del(collection, id string) error {
	if _, ok := t[collection][id]; !ok {
		return ErrNotFound
	}
	delete(t[collection], id)
	return nil
}

// ids sorts the identifiers into the order a directory listing has.
func (t memTable) ids(collection string) ([]string, error) {
	var ids []string
	for id := range t[collection] {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, nil
}

func (t memTable) stats() (Stats, error) {
	st := Stats{Collections: len(t)}
	for _, col := range t {
		st.Documents += len(col)
		for _, b := range col {
			st.SizeBytes += int64(len(b))
		}
	}
	return st, nil
}
