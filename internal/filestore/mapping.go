package filestore

import (
	"runtime"
	"sync"
)

// MmapEnabled reports whether OpenMapped memory-maps blobs on this
// platform (an unthrottled store's blobs, see OpenMapped).
func MmapEnabled() bool { return mmapSupported }

// Mapping is the read-only content of one blob, either memory-mapped from
// the store or read fully into private memory (the portable fallback, and
// the path a bandwidth-throttled store takes). Bytes must be treated as
// immutable; writing to a mapped region faults.
//
// Lifetime: consumers that alias Bytes (tensor.AliasFrames via
// nn.ReadStateDictMapped) retain the Mapping from every aliasing tensor,
// and a mapped Mapping carries a finalizer that unmaps it once nothing
// references it anymore — so the unmap can never race a live reader.
// Close unmaps eagerly and must only be called when no aliases of Bytes
// remain. Unmap safety against writers is structural: SaveAs commits
// blobs by writing a temp file and renaming it into place, so the inode
// backing an existing mapping is never truncated or rewritten, only
// unlinked — the mapping stays valid until released.
type Mapping struct {
	data   []byte
	mapped bool
	once   sync.Once
}

// Bytes returns the blob content. The slice must not be mutated, and must
// not be used after Close.
func (m *Mapping) Bytes() []byte { return m.data }

// Mapped reports whether the content is memory-mapped (true) or a private
// in-memory copy (false).
func (m *Mapping) Mapped() bool { return m.mapped }

// Close releases the mapping (idempotent). Callers that handed Bytes to
// an aliasing decoder must NOT call Close — the finalizer releases the
// mapping once the aliasing tensors are unreachable.
func (m *Mapping) Close() error {
	var err error
	m.once.Do(func() {
		if m.mapped {
			runtime.SetFinalizer(m, nil)
			err = munmap(m.data)
		}
		m.data = nil
	})
	return err
}

// OpenMapped returns the blob's full content as a Mapping. When the
// platform supports it and no bandwidth throttle is configured, the
// content is memory-mapped — O(1) regardless of blob size, with pages
// faulted in lazily as they are read. Otherwise (and on
// any mapping error) the blob is read fully into memory, so callers get
// identical bytes on every path. A throttled store always takes the read
// path: a mapping would bypass the emulated bandwidth limit.
func (s *Store) OpenMapped(id string) (*Mapping, error) {
	if MmapEnabled() && s.bandwidth() <= 0 {
		path, err := s.path(id)
		if err != nil {
			return nil, err
		}
		if m, err := mmapFile(path); err == nil {
			mMmapOpens.Inc()
			mMmapBytes.Add(int64(len(m.data)))
			return m, nil
		} else if err == ErrNotFound {
			return nil, err
		}
		// Any other mapping failure falls through to the portable read.
	}
	b, err := s.ReadAll(id)
	if err != nil {
		return nil, err
	}
	return &Mapping{data: b}, nil
}
