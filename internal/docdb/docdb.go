// Package docdb implements the document database used to persist model
// metadata. The paper stores its JSON documents in MongoDB running on a
// dedicated machine; docdb substitutes an embedded JSON document store with
// the same operational surface (collections, generated identifiers,
// field-equality queries) plus a TCP server and client so documents can
// round-trip a real network socket like in the paper's three-machine setup.
package docdb

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
)

// Document is a JSON-style document. Values must be JSON-marshalable.
type Document map[string]any

// ErrNotFound is returned when a document or collection does not exist.
var ErrNotFound = errors.New("docdb: not found")

// Store is the common interface implemented by the in-memory engine, the
// on-disk engine, and the network client. All implementations are safe for
// concurrent use.
type Store interface {
	// Insert stores doc in the named collection under a freshly generated
	// identifier and returns that identifier.
	Insert(collection string, doc Document) (string, error)
	// Put stores doc under the given identifier, overwriting any existing
	// document with that identifier.
	Put(collection, id string, doc Document) error
	// Get returns the document with the given identifier, or ErrNotFound.
	Get(collection, id string) (Document, error)
	// Chain returns document id, then the documents reached from it by
	// following the string field next, for as long as this store holds
	// them. It ends after a document whose string field stop is non-empty,
	// at a document with no next, before a document it does not hold or
	// cannot read, before one it already returned (a cycle), or at the
	// bound: MaxChain documents, and past the first no more than 1 MiB of
	// encoded documents (maxChainBytes). A caller that needs more calls
	// again at the last document's next, which also reports any error
	// there. The error is ErrNotFound only when id itself is missing.
	Chain(collection, id, next, stop string) ([]Document, error)
	// NewIDNear returns a fresh identifier for a document of collection
	// that the store places beside document near of the same collection
	// where it can. Placement only saves round trips: a store with one
	// placement returns NewID(), and any identifier is valid anywhere.
	NewIDNear(collection, near string) string
	// Delete removes the document with the given identifier. Deleting a
	// missing document returns ErrNotFound.
	Delete(collection, id string) error
	// Find returns all documents in the collection whose fields match every
	// key/value pair in eq, in lexicographic identifier order. A nil or
	// empty eq matches every document.
	Find(collection string, eq Document) ([]Document, error)
	// IDs returns the identifiers of all documents in the collection in
	// lexicographic order. Every engine must agree on this ordering so
	// code observing result order behaves identically against the memory
	// engine, the disk engine, and the network client.
	IDs(collection string) ([]string, error)
	// Stats returns storage statistics for the whole store.
	Stats() (Stats, error)
	// Close releases resources held by the store.
	Close() error
}

// Stats summarizes a store's contents. SizeBytes counts the serialized JSON
// size of every document; it is the metadata share of the paper's storage
// consumption metric.
type Stats struct {
	Collections int   `json:"collections"`
	Documents   int   `json:"documents"`
	SizeBytes   int64 `json:"size_bytes"`
}

// NewID generates a 16-byte random hex identifier. Identifiers do not need
// to be reproducible, only unique, so a cryptographic source is used.
func NewID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		//mmlint:ignore panicfree crypto/rand.Read never fails on supported platforms; no caller can act on this
		panic(fmt.Sprintf("docdb: id generation failed: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// MaxChain bounds the documents one Chain call returns, so a reference
// cycle that spans stores still ends.
const MaxChain = 256

// maxChainBytes bounds the encoded documents of one Chain answer past its
// first, so a chain response is one document larger than a Get response at
// most, by one readChunk.
const maxChainBytes = readChunk

// WalkChain is Store.Chain over documents fetched one at a time by read,
// which returns the document under an id and its encoded size (0 exempts it
// from the byte bound). The engines call it under their lock; it is
// exported for Store compositions (the shard router), so that their chains
// end exactly where an engine's would.
func WalkChain(id, next, stop string, read func(id string) (Document, int, error)) ([]Document, error) {
	var out []Document
	seen := make(map[string]bool)
	size := 0
	for cur := id; len(out) < MaxChain && !seen[cur]; {
		doc, n, err := read(cur)
		if err != nil {
			if len(out) == 0 {
				return nil, err
			}
			break // the caller's call at cur reports it
		}
		if len(out) > 0 {
			if size += n; size > maxChainBytes {
				break
			}
		}
		out = append(out, doc)
		seen[cur] = true
		if s, _ := doc[stop].(string); stop != "" && s != "" {
			break
		}
		if cur, _ = doc[next].(string); next == "" || cur == "" {
			break
		}
	}
	return out, nil
}

// Matches reports whether doc satisfies all equality constraints in eq,
// with the same comparison semantics every Store engine applies to Find.
// It is exported for Store compositions (the shard router) that must filter
// documents with engine-identical semantics outside this package.
func Matches(doc, eq Document) bool { return matches(doc, eq) }

// matches reports whether doc satisfies all equality constraints in eq.
// Comparison is by fmt.Sprint rendering so numeric types that JSON decodes
// differently (int vs float64) still compare equal.
func matches(doc, eq Document) bool {
	for k, want := range eq {
		got, ok := doc[k]
		if !ok {
			return false
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			return false
		}
	}
	return true
}

// clone deep-copies a document one level deep plus nested maps/slices that
// came from JSON decoding, so callers can mutate results safely.
func clone(doc Document) Document {
	if doc == nil {
		return nil
	}
	out := make(Document, len(doc))
	for k, v := range doc {
		out[k] = cloneValue(v)
	}
	return out
}

func cloneValue(v any) any {
	switch x := v.(type) {
	case Document:
		return clone(x)
	case map[string]any:
		return clone(Document(x))
	case []any:
		c := make([]any, len(x))
		for i, e := range x {
			c[i] = cloneValue(e)
		}
		return c
	default:
		return v
	}
}
