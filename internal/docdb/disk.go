package docdb

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/fsx"
)

// DiskStore is a directory-backed document store. Every document is one JSON
// file at <root>/<collection>/<id>.json, which makes stored metadata easy to
// inspect and gives an honest on-disk byte count for the storage-consumption
// experiments.
type DiskStore struct{ engine }

// OpenDisk opens (creating if necessary) a disk store rooted at dir.
func OpenDisk(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("docdb: creating root: %w", err)
	}
	return &DiskStore{engine{t: diskTable{root: dir}}}, nil
}

var _ Store = (*DiskStore)(nil)

// diskTable holds each encoding as the file <root>/<collection>/<id>.json.
type diskTable struct{ root string }

func (t diskTable) colDir(collection string) (string, error) {
	if collection == "" || strings.ContainsAny(collection, "/\\") {
		return "", fmt.Errorf("docdb: invalid collection name %q", collection)
	}
	return filepath.Join(t.root, collection), nil
}

func (t diskTable) docPath(collection, id string) (string, error) {
	dir, err := t.colDir(collection)
	if err != nil {
		return "", err
	}
	if id == "" || strings.ContainsAny(id, "/\\.") {
		return "", fmt.Errorf("docdb: invalid document id %q", id)
	}
	return filepath.Join(dir, id+".json"), nil
}

func (t diskTable) put(collection, id string, b []byte) error {
	path, err := t.docPath(collection, id)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	// Stage in a uniquely named temp file and fsync before the rename:
	// the renamed-in document must never be observable with truncated
	// content after a crash, and concurrent writers (two stores on one
	// directory) must never interleave into a shared temp file.
	f, err := os.CreateTemp(dir, id+".*.tmp")
	if errors.Is(err, fs.ErrNotExist) {
		// The collection's first document creates its directory. Its entry
		// in the store root must reach the disk too, or a power loss
		// forgets the whole collection with every fsynced document in it.
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("docdb: creating collection: %w", err)
		}
		if err := fsx.SyncDir(t.root); err != nil {
			return fmt.Errorf("docdb: syncing store root: %w", err)
		}
		f, err = os.CreateTemp(dir, id+".*.tmp")
	}
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
	if err := fsx.SyncDir(dir); err != nil {
		return fmt.Errorf("docdb: syncing collection directory: %w", err)
	}
	return nil
}

func (t diskTable) get(collection, id string) ([]byte, error) {
	path, err := t.docPath(collection, id)
	if err != nil {
		return nil, err
	}
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, ErrNotFound
	}
	if err != nil {
		return nil, fmt.Errorf("docdb: reading document: %w", err)
	}
	return b, nil
}

func (t diskTable) del(collection, id string) error {
	path, err := t.docPath(collection, id)
	if err != nil {
		return err
	}
	err = os.Remove(path)
	if os.IsNotExist(err) {
		return ErrNotFound
	}
	return err
}

// ids relies on os.ReadDir sorting entries by name.
func (t diskTable) ids(collection string) ([]string, error) {
	dir, err := t.colDir(collection)
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

func (t diskTable) stats() (Stats, error) {
	var st Stats
	entries, err := os.ReadDir(t.root)
	if err != nil {
		return Stats{}, fmt.Errorf("docdb: listing root: %w", err)
	}
	for _, col := range entries {
		if !col.IsDir() {
			continue
		}
		st.Collections++
		docs, err := os.ReadDir(filepath.Join(t.root, col.Name()))
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
