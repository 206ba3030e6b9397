// Package filestore implements the shared file store used to persist model
// artifacts: serialized parameters, parameter updates, model code, dataset
// archives, and optimizer state files. The paper uses a file system shared
// between all machines over 100G InfiniBand; filestore substitutes a
// directory-backed blob store with generated identifiers plus an optional
// bandwidth throttle to emulate constrained links.
package filestore

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/fsx"
	"repro/internal/obs"
)

// ErrNotFound is returned when a blob does not exist.
var ErrNotFound = errors.New("filestore: not found")

// Registry counters over the store's I/O paths, distinguishing buffered
// reads from mmap opens so a snapshot shows which path served recovery.
var (
	mWrites     = obs.Default().Counter("filestore.writes")
	mWriteBytes = obs.Default().Counter("filestore.write_bytes")
	mReads      = obs.Default().Counter("filestore.reads")
	mReadBytes  = obs.Default().Counter("filestore.read_bytes")
	mMmapOpens  = obs.Default().Counter("filestore.mmap_opens")
	mMmapBytes  = obs.Default().Counter("filestore.mmap_bytes")
)

// Where a SaveAs spends its time, one histogram per step: the write loop
// (the source serializing itself, the content hash and write(2)), the
// fsync of the temp file, and the publish (rename + directory fsync).
var (
	mSaveAsWrite   = obs.Default().Histogram("filestore.saveas.write_us")
	mSaveAsFsync   = obs.Default().Histogram("filestore.saveas.fsync_us")
	mSaveAsPublish = obs.Default().Histogram("filestore.saveas.publish_us")
)

// copyBufPool recycles the 64 KB transfer buffers used when streaming blobs
// to and from disk, so the save/recover hot path does not allocate one per
// blob (io.Copy otherwise allocates a fresh buffer per call).
var copyBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 1<<16)
		return &b
	},
}

// copyPooled is io.Copy with a pooled transfer buffer; like io.Copy it
// hands dst to a src that implements io.WriterTo (or src to an
// io.ReaderFrom), and takes no buffer out of the pool then.
func copyPooled(dst io.Writer, src io.Reader) (int64, error) {
	_, writerTo := src.(io.WriterTo)
	_, readerFrom := dst.(io.ReaderFrom)
	if writerTo || readerFrom {
		return io.Copy(dst, src)
	}
	bufp := copyBufPool.Get().(*[]byte)
	defer copyBufPool.Put(bufp)
	return io.CopyBuffer(dst, src, *bufp)
}

// Store is a shared blob store. All methods are safe for concurrent use.
type Store struct {
	root string
	mu   sync.RWMutex
	// bytesPerSecond throttles reads and writes when > 0.
	bytesPerSecond int64
	// uplink paces all throttled streams together: the bandwidth limit is
	// the store's link, not each transfer's.
	uplink link
}

// Open opens (creating if necessary) a file store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("filestore: creating root: %w", err)
	}
	return &Store{root: dir}, nil
}

// SetBandwidth limits subsequent reads and writes to approximately
// bytesPerSecond in aggregate: concurrent transfers share the limit, like
// flows sharing one link. The throttle models the "transfer with limited
// available bandwidth" scenario of the paper's introduction.
func (s *Store) SetBandwidth(bytesPerSecond int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.bytesPerSecond = bytesPerSecond
}

func (s *Store) bandwidth() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytesPerSecond
}

func (s *Store) path(id string) (string, error) {
	if id == "" || strings.ContainsAny(id, "/\\.") {
		return "", fmt.Errorf("filestore: invalid id %q", id)
	}
	return filepath.Join(s.root, id), nil
}

// NewID generates a fresh blob identifier.
func NewID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		//mmlint:ignore panicfree crypto/rand.Read never fails on supported platforms; no caller can act on this
		panic(fmt.Sprintf("filestore: id generation failed: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// Save streams r into a new blob and returns its identifier, the number of
// bytes stored, and the hex SHA-256 of the content.
func (s *Store) Save(r io.Reader) (id string, size int64, hash string, err error) {
	id = NewID()
	size, hash, err = s.SaveAs(id, r)
	return id, size, hash, err
}

// SaveAs writes the blob r produces under the given identifier, overwriting
// any existing blob, and returns the stored size and content hash. It
// consumes r as io.Copy does (see Blobs.SaveAs): a source that implements
// io.WriterTo writes straight into the store's writer. The content hash is
// the SHA-256 of the bytes, computed while they are written, unless r
// brings its own (HashedSource): then no byte is hashed here, and r is
// asked for its hash once the bytes are fsynced.
//
// The blob is staged under a uniquely named temp file, fsynced, and then
// renamed into place. A fixed temp name would let two concurrent saves of
// the same identifier interleave bytes into one file, and skipping the
// sync would let the rename commit a blob whose tail the OS never flushed
// — a crash could then surface a truncated artifact under a committed
// name, breaking the exactness guarantee the stores exist to keep.
func (s *Store) SaveAs(id string, r io.Reader) (int64, string, error) {
	path, err := s.path(id)
	if err != nil {
		return 0, "", err
	}
	//mmlint:ignore hashpurity SaveAs reads the clock only to time its steps into the filestore.saveas.* histograms; the bytes written and hashed are the caller's
	start := time.Now()
	f, err := os.CreateTemp(s.root, id+".*.tmp")
	if err != nil {
		return 0, "", fmt.Errorf("filestore: staging blob: %w", err)
	}
	tmp := f.Name()
	w := &blobWriter{f: f, l: &s.uplink, bps: s.bandwidth()}
	hasher, selfHashed := r.(contentHasher)
	if !selfHashed {
		w.h = sha256.New()
	}
	_, err = copyPooled(w, r)
	//mmlint:ignore hashpurity step timing, as at start
	written := time.Now()
	if err == nil {
		err = f.Sync()
	}
	//mmlint:ignore hashpurity step timing, as at start
	synced := time.Now()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	// A source that brings its own hash is asked for it only now: one that
	// is still computing it runs beside the write and the fsync.
	var sum string
	if err == nil && selfHashed {
		sum, err = hasher.ContentHash()
	} else if err == nil {
		sum = hex.EncodeToString(w.h.Sum(nil))
	}
	//mmlint:ignore hashpurity step timing, as at start
	hashed := time.Now()
	if err != nil {
		os.Remove(tmp)
		return 0, "", fmt.Errorf("filestore: writing blob: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, "", fmt.Errorf("filestore: committing blob: %w", err)
	}
	// The rename is an entry in the store's root directory; without
	// flushing it a power loss can forget the committed blob even though
	// its content was fsynced above.
	if err := fsx.SyncDir(s.root); err != nil {
		return 0, "", fmt.Errorf("filestore: syncing store directory: %w", err)
	}
	mSaveAsWrite.ObserveDuration(written.Sub(start))
	mSaveAsFsync.ObserveDuration(synced.Sub(written))
	//mmlint:ignore hashpurity step timing, as at start
	mSaveAsPublish.ObserveDuration(time.Since(hashed))
	mWrites.Inc()
	mWriteBytes.Add(w.n)
	return w.n, sum, nil
}

// writebackStep is how many bytes a SaveAs writes to its temp file between
// two write-back hints; a smaller blob gets none. writeQuantum caps one
// write(2) into a temp file, however large a piece the source hands over
// (a state dict writes large tensors whole, SaveBytes the whole blob), and
// write(2) calls end at its multiples in the file. Both were chosen by the
// sweeps in EXPERIMENTS.md, "Hashing beside the write".
const (
	writebackStep = 2 << 20
	writeQuantum  = 64 << 10
)

// blobWriter is the writer SaveAs hands a blob's source. Every byte goes to
// the temp file and, unless the source brings its own hash, into the
// content hash, paced by the store's link when a bandwidth is set; every
// writebackStep bytes the kernel is asked to start writing the new pages
// out, so the disk works while the CPU is still serializing and hashing
// the rest of the blob and the final fsync finds little left.
type blobWriter struct {
	f   *os.File
	h   hash.Hash // nil for a source that brings its own hash
	l   *link
	bps int64
	n   int64 // bytes written so far
	// hinted is how many of them write-back has been requested for.
	hinted int64
}

// Write hashes a piece larger than one writeQuantum on another goroutine
// while the write(2) loop copies the same piece to the file; both only read
// p. It returns after the hash has read all of p, on error too, so the
// caller's buffer is never read after Write returns. A failed write leaves
// bytes in the hash that the file lacks; SaveAs discards both then.
// Without a hash, Write is the write loop alone.
func (w *blobWriter) Write(p []byte) (int, error) {
	if w.h == nil {
		return w.write(p)
	}
	if len(p) <= writeQuantum {
		n, err := w.write(p)
		w.h.Write(p[:n])
		return n, err
	}
	hashed := make(chan struct{})
	go func() {
		w.h.Write(p)
		close(hashed)
	}()
	n, err := w.write(p)
	<-hashed
	return n, err
}

// write copies p to the temp file in write(2) calls that end at multiples
// of one quantum in the file, whatever offsets the source's pieces start at.
func (w *blobWriter) write(p []byte) (int, error) {
	step := int64(writeQuantum)
	if w.bps > 0 {
		step = linkQuantum
	}
	var done int
	for len(p) > 0 {
		n, err := w.f.Write(p[:min(int64(len(p)), step-w.n%step)])
		w.n += int64(n)
		done += n
		if err != nil {
			return done, err
		}
		if w.n-w.hinted >= writebackStep {
			startWriteback(w.f, w.hinted, w.n-w.hinted)
			w.hinted = w.n
		}
		w.l.wait(int64(n), w.bps)
		p = p[n:]
	}
	return done, nil
}

// SaveBytes stores b as a new blob.
func (s *Store) SaveBytes(b []byte) (id string, size int64, hash string, err error) {
	return s.Save(bytes.NewReader(b))
}

// Open returns a reader over the blob's content. The caller must close it.
func (s *Store) Open(id string) (io.ReadCloser, error) {
	path, err := s.path(id)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, fmt.Errorf("filestore: opening blob: %w", err)
	}
	if bw := s.bandwidth(); bw > 0 {
		return &linkReader{ReadCloser: f, l: &s.uplink, bps: bw}, nil
	}
	return f, nil
}

// ReadAll returns the blob's full content. The buffer is pre-sized from
// the blob's stored size, so a read costs one allocation instead of
// io.ReadAll's grow-and-copy doublings — parameter blobs are the largest
// things recovery touches, and the doubling roughly doubles their peak
// memory. The loop still handles files that change size underfoot.
func (s *Store) ReadAll(id string) ([]byte, error) {
	size, err := s.Size(id)
	if err != nil {
		return nil, err
	}
	rc, err := s.Open(id)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	b := make([]byte, 0, size+1) // +1 so a full read still sees EOF without growing
	for {
		n, err := rc.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			mReads.Inc()
			mReadBytes.Add(int64(len(b)))
			return b, nil
		}
		if err != nil {
			return nil, fmt.Errorf("filestore: reading blob: %w", err)
		}
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
	}
}

// Size returns the stored size of a blob.
func (s *Store) Size(id string) (int64, error) {
	path, err := s.path(id)
	if err != nil {
		return 0, err
	}
	info, err := os.Stat(path)
	if os.IsNotExist(err) {
		return 0, ErrNotFound
	}
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// Hash returns the hex SHA-256 of the blob's content.
func (s *Store) Hash(id string) (string, error) {
	rc, err := s.Open(id)
	if err != nil {
		return "", err
	}
	defer rc.Close()
	h := sha256.New()
	if _, err := copyPooled(h, rc); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Delete removes a blob. Deleting a missing blob returns ErrNotFound.
func (s *Store) Delete(id string) error {
	path, err := s.path(id)
	if err != nil {
		return err
	}
	err = os.Remove(path)
	if os.IsNotExist(err) {
		return ErrNotFound
	}
	return err
}

// DeleteTemps removes the temp files of the given identifier: what a
// SaveAs killed mid-write leaves in the root, invisible to List and Stats.
func (s *Store) DeleteTemps(id string) error {
	if _, err := s.path(id); err != nil {
		return err
	}
	entries, err := os.ReadDir(s.root)
	if err != nil {
		return fmt.Errorf("filestore: listing root: %w", err)
	}
	for _, e := range entries {
		// Identifiers contain no '.', so the prefix cannot match another
		// identifier's temp files.
		if name := e.Name(); strings.HasPrefix(name, id+".") && strings.HasSuffix(name, ".tmp") {
			if err := os.Remove(filepath.Join(s.root, name)); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("filestore: removing temp file: %w", err)
			}
		}
	}
	return nil
}

// Exists reports whether a blob with the given identifier exists.
func (s *Store) Exists(id string) bool {
	path, err := s.path(id)
	if err != nil {
		return false
	}
	_, err = os.Stat(path)
	return err == nil
}

// Stats summarizes the store's contents.
type Stats struct {
	Blobs     int   `json:"blobs"`
	SizeBytes int64 `json:"size_bytes"`
}

// Stats returns the number of blobs and total bytes stored.
func (s *Store) Stats() (Stats, error) {
	entries, err := os.ReadDir(s.root)
	if err != nil {
		return Stats{}, fmt.Errorf("filestore: listing root: %w", err)
	}
	var st Stats
	for _, e := range entries {
		if e.IsDir() || strings.HasSuffix(e.Name(), ".tmp") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return Stats{}, err
		}
		st.Blobs++
		st.SizeBytes += info.Size()
	}
	return st, nil
}

// Root returns the directory the store persists blobs in.
func (s *Store) Root() string { return s.root }

// List returns the identifiers of all stored blobs in unspecified order.
func (s *Store) List() ([]string, error) {
	entries, err := os.ReadDir(s.root)
	if err != nil {
		return nil, fmt.Errorf("filestore: listing root: %w", err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() || strings.HasSuffix(e.Name(), ".tmp") {
			continue
		}
		out = append(out, e.Name())
	}
	return out, nil
}
