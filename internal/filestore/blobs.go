package filestore

import "io"

// Blobs is the file-provider interface the save/recover approaches persist
// artifacts through. *Store — one directory on the shared file system — is
// the canonical implementation; shard.Files implements it over N stores
// behind a consistent-hash ring, which is why core.Stores carries this
// interface rather than the concrete store: the approaches fan blob traffic
// out across shards with zero changes to their own code.
//
// Identifiers are generated client-side (NewID), so any implementation that
// routes purely on the identifier is deterministic: the store that wrote a
// blob is the store every later reader computes.
type Blobs interface {
	// Save streams r into a new blob and returns its identifier, size, and
	// content hash, as SaveAs does.
	Save(r io.Reader) (id string, size int64, hash string, err error)
	// SaveAs stores the blob r produces under the given identifier,
	// overwriting any existing blob, and returns size and content hash.
	//
	// SaveAs consumes r as io.Copy does: when r implements io.WriterTo,
	// the store calls r.WriteTo once with its own writer (temp file,
	// content hash, bandwidth pacing) and never calls Read, so the source
	// writes itself into the store on the caller's goroutine with no copy
	// in between; any other reader is copied through a buffer. Source
	// builds such a reader from a serializing function, and its Read
	// fails: an implementation must consume r as io.Copy does, and one
	// that wraps another Blobs must hand r through unwrapped. When WriteTo
	// or Read fails, SaveAs returns that error and stores nothing.
	//
	// The content hash is the hex SHA-256 of the stored bytes, hashed
	// while they are written — unless r brings its own (HashedSource):
	// then the store hashes no byte and returns the source's hash, asked
	// for once every byte is written and durable. A parameter blob brings
	// its frames hash (nn.AuditFramesHash checks it), so its bytes are
	// hashed once, into the per-tensor digests.
	SaveAs(id string, r io.Reader) (int64, string, error)
	// SaveBytes stores b as a new blob.
	SaveBytes(b []byte) (id string, size int64, hash string, err error)
	// Open returns a reader over the blob's content; the caller closes it.
	Open(id string) (io.ReadCloser, error)
	// OpenMapped opens the blob as a memory mapping when enabled, falling
	// back to a full read otherwise.
	OpenMapped(id string) (*Mapping, error)
	// ReadAll returns the blob's full content.
	ReadAll(id string) ([]byte, error)
	// Size returns the stored size of a blob.
	Size(id string) (int64, error)
	// Hash returns the hex SHA-256 of the blob's content, whatever hash
	// SaveAs returned for it.
	Hash(id string) (string, error)
	// Delete removes a blob; deleting a missing blob returns ErrNotFound.
	Delete(id string) error
	// DeleteTemps removes what a SaveAs(id) that never returned — its
	// process died mid-write — left behind: staged bytes no other method
	// shows. Only safe while no SaveAs of that id is in flight; removing
	// nothing is not an error.
	DeleteTemps(id string) error
	// Exists reports whether a blob with the given identifier exists.
	Exists(id string) bool
	// List returns the identifiers of all stored blobs in unspecified order.
	List() ([]string, error)
	// Stats returns the number of blobs and total bytes stored.
	Stats() (Stats, error)
	// SetBandwidth throttles aggregate reads and writes to approximately
	// bytesPerSecond; zero or negative removes the limit.
	SetBandwidth(bytesPerSecond int64)
}

var _ Blobs = (*Store)(nil)
