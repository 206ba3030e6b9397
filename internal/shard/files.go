package shard

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/filestore"
	"repro/internal/obs"
)

// Files is a filestore.Blobs that routes blobs across N backend stores by
// consistent-hashing the blob identifier. Blob identifiers are generated
// client-side before the first byte is streamed, so the owner shard is a
// pure function of the identifier — the same determinism argument as
// Meta's, and the reason recovery finds every artifact a save wrote no
// matter which process asks.
type Files struct {
	ring   *Ring
	stores []filestore.Blobs
	hists  []*obs.Histogram
}

var _ filestore.Blobs = (*Files)(nil)

// NewFiles builds a sharded blob store over the ring's backends.
func NewFiles(ring *Ring, stores ...filestore.Blobs) (*Files, error) {
	if len(stores) != ring.Nodes() {
		return nil, fmt.Errorf("shard: ring expects %d file stores, got %d", ring.Nodes(), len(stores))
	}
	f := &Files{ring: ring, stores: stores, hists: make([]*obs.Histogram, len(stores))}
	for i := range stores {
		f.hists[i] = obs.Default().Histogram(fmt.Sprintf("shard.files.%d.op_us", i))
	}
	return f, nil
}

// OpenFiles opens one file-store directory per shard, in ring order, and
// routes blobs across them.
func OpenFiles(dirs []string) (*Files, error) {
	ring, err := NewRing(len(dirs), 0)
	if err != nil {
		return nil, err
	}
	stores := make([]filestore.Blobs, len(dirs))
	for i, dir := range dirs {
		if stores[i], err = filestore.Open(dir); err != nil {
			return nil, err
		}
	}
	return NewFiles(ring, stores...)
}

// owner returns the shard index that stores the blob.
func (f *Files) owner(id string) int { return f.ring.Owner("blob/" + id) }

func (f *Files) observe(i int, t0 time.Time) {
	//mmlint:ignore hashpurity the clock times the shard op into a histogram; nothing derived from it reaches the digested stream
	f.hists[i].ObserveDuration(time.Since(t0))
}

// fanOut runs fn for every shard concurrently — one goroutine per shard,
// bounded by the counted loop — and joins the per-shard errors.
func (f *Files) fanOut(fn func(i int) error) error {
	errs := make([]error, len(f.stores))
	var wg sync.WaitGroup
	for i := 0; i < len(f.stores); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t0 := time.Now()
			errs[i] = fn(i)
			f.observe(i, t0)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Save implements filestore.Blobs. As with Meta.Insert, the identifier is
// generated before routing so the blob's address is deterministic.
func (f *Files) Save(r io.Reader) (string, int64, string, error) {
	id := filestore.NewID()
	size, hash, err := f.SaveAs(id, r)
	return id, size, hash, err
}

// SaveAs implements filestore.Blobs.
func (f *Files) SaveAs(id string, r io.Reader) (int64, string, error) {
	i := f.owner(id)
	//mmlint:ignore hashpurity the clock only times the op; the bytes streamed into the backend are fixed by the caller
	defer f.observe(i, time.Now())
	return f.stores[i].SaveAs(id, r)
}

// SaveBytes implements filestore.Blobs.
func (f *Files) SaveBytes(b []byte) (string, int64, string, error) {
	id := filestore.NewID()
	size, hash, err := f.SaveAs(id, bytes.NewReader(b))
	return id, size, hash, err
}

// Open implements filestore.Blobs.
func (f *Files) Open(id string) (io.ReadCloser, error) {
	i := f.owner(id)
	defer f.observe(i, time.Now())
	return f.stores[i].Open(id)
}

// OpenMapped implements filestore.Blobs.
func (f *Files) OpenMapped(id string) (*filestore.Mapping, error) {
	i := f.owner(id)
	defer f.observe(i, time.Now())
	return f.stores[i].OpenMapped(id)
}

// ReadAll implements filestore.Blobs.
func (f *Files) ReadAll(id string) ([]byte, error) {
	i := f.owner(id)
	defer f.observe(i, time.Now())
	return f.stores[i].ReadAll(id)
}

// Size implements filestore.Blobs.
func (f *Files) Size(id string) (int64, error) {
	i := f.owner(id)
	defer f.observe(i, time.Now())
	return f.stores[i].Size(id)
}

// Hash implements filestore.Blobs.
func (f *Files) Hash(id string) (string, error) {
	i := f.owner(id)
	defer f.observe(i, time.Now())
	return f.stores[i].Hash(id)
}

// Delete implements filestore.Blobs.
func (f *Files) Delete(id string) error {
	i := f.owner(id)
	defer f.observe(i, time.Now())
	return f.stores[i].Delete(id)
}

// DeleteTemps implements filestore.Blobs: a blob's temp files live on the
// shard that owns its identifier.
func (f *Files) DeleteTemps(id string) error {
	i := f.owner(id)
	defer f.observe(i, time.Now())
	return f.stores[i].DeleteTemps(id)
}

// Exists implements filestore.Blobs.
func (f *Files) Exists(id string) bool {
	i := f.owner(id)
	defer f.observe(i, time.Now())
	return f.stores[i].Exists(id)
}

// List implements filestore.Blobs: every shard lists in parallel; the
// merged result is sorted so listings are deterministic across shard
// layouts (the contract says unspecified order, but audits diff listings).
func (f *Files) List() ([]string, error) {
	parts := make([][]string, len(f.stores))
	err := f.fanOut(func(i int) error {
		ids, err := f.stores[i].List()
		parts[i] = ids
		return err
	})
	if err != nil {
		return nil, err
	}
	var out []string
	for _, p := range parts {
		out = append(out, p...)
	}
	sort.Strings(out)
	return out, nil
}

// Stats implements filestore.Blobs by summing per-shard stats.
func (f *Files) Stats() (filestore.Stats, error) {
	parts := make([]filestore.Stats, len(f.stores))
	err := f.fanOut(func(i int) error {
		st, err := f.stores[i].Stats()
		parts[i] = st
		return err
	})
	if err != nil {
		return filestore.Stats{}, err
	}
	var out filestore.Stats
	for _, st := range parts {
		out.Blobs += st.Blobs
		out.SizeBytes += st.SizeBytes
	}
	return out, nil
}

// SetBandwidth implements filestore.Blobs, applying the same per-store
// limit to every shard: the throttle models each backend's own link.
func (f *Files) SetBandwidth(bytesPerSecond int64) {
	for _, s := range f.stores {
		s.SetBandwidth(bytesPerSecond)
	}
}
