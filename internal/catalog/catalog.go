// Package catalog implements the server-side model catalog: the paper's U4
// requirement that "the server has to monitor every model that exists and
// has to be able to losslessly recover it when requested". It provides
// lineage queries over the base-model references the save approaches store
// (list models, walk derivation chains, find children) and a safe garbage
// collector that deletes models together with their private artifacts —
// refusing to break chains that other models still depend on. What a
// stored model is — its kind, its base, what it owns — is core's to read.
package catalog

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/docdb"
	"repro/internal/filestore"
	"repro/internal/par"
)

// Catalog wraps the shared stores with read-mostly management operations.
type Catalog struct {
	stores core.Stores
}

// New creates a catalog over the given stores.
func New(stores core.Stores) *Catalog {
	return &Catalog{stores: stores}
}

// Entry summarizes one saved model: core's reading of it, and the bytes
// its blobs take.
type Entry struct {
	core.StoredModel
	// StorageBytes is the model's own artifact footprint (files only;
	// document sizes are negligible and engine dependent).
	StorageBytes int64 `json:"storage_bytes"`
}

// ErrInUse is returned when deleting a model that other models derive from.
var ErrInUse = errors.New("catalog: model is a base of other models")

// listWorkers bounds the models a scan has in flight at once. A scan waits
// on the metadata store, not the CPU, so the bound is fixed rather than
// GOMAXPROCS.
const listWorkers = 16

// List returns every saved model with its storage, sorted by identifier
// for determinism.
func (c *Catalog) List() ([]Entry, error) { return c.scan(true) }

// scan reads every saved model, sorted by identifier, sizing its blobs if
// sized; it is the one scan of the models every other operation uses. A
// bounded pool issues the independent per-model reads together, and the
// first error in identifier order is returned, as a serial scan would. A
// model deleted between the listing and its read is skipped; any other
// failed read fails the scan: that model may be a child, or own a live blob.
func (c *Catalog) scan(sized bool) ([]Entry, error) {
	ids, err := c.stores.Meta.IDs(core.ColModels)
	if err != nil {
		return nil, err
	}
	slices.Sort(ids)
	out := make([]Entry, len(ids))
	err = par.For(len(ids), listWorkers, func(i int) error {
		m, err := core.ReadModel(c.stores.Meta, ids[i])
		switch {
		case errors.Is(err, core.ErrModelNotFound):
			return nil // out[i] stays empty and is dropped below
		case err != nil:
			return err
		case sized:
			out[i] = c.entry(m)
		default:
			out[i] = Entry{StoredModel: m}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return slices.DeleteFunc(out, func(e Entry) bool { return e.ID == "" }), nil
}

// entry summarizes m, sizing the blobs it owns.
func (c *Catalog) entry(m core.StoredModel) Entry {
	e := Entry{StoredModel: m}
	for _, ref := range m.Owns.Blobs {
		if n, err := c.stores.Files.Size(ref); err == nil {
			e.StorageBytes += n
		}
	}
	return e
}

// Chain returns the derivation chain from id down to its root, past any
// snapshot: [id, base, base-of-base, ..., root].
func (c *Catalog) Chain(id string) ([]Entry, error) {
	chain, err := core.ReadChain(c.stores.Meta, id)
	if err != nil {
		return nil, err
	}
	out := make([]Entry, len(chain))
	for i, m := range chain {
		out[i] = c.entry(m)
	}
	return out, nil
}

// Children returns the models directly derived from id, sorted.
func (c *Catalog) Children(id string) ([]string, error) {
	entries, err := c.scan(false)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if e.BaseID == id {
			out = append(out, e.ID)
		}
	}
	return out, nil
}

// Delete removes a model and its private artifacts. Models that other
// models derive from cannot be deleted unless force is set — deleting a
// base breaks the recursive recovery of every descendant saved with the
// parameter update or provenance approach (baseline descendants only lose
// their lineage link, not recoverability, but the reference still dangles).
func (c *Catalog) Delete(id string, force bool) error {
	m, err := core.ReadModel(c.stores.Meta, id)
	if err != nil {
		return err
	}
	if !force {
		kids, err := c.Children(id)
		if err != nil {
			return err
		}
		if len(kids) > 0 {
			return fmt.Errorf("%w: %s has %d dependent model(s)", ErrInUse, id, len(kids))
		}
	}
	// Delete owned blobs, then side documents, then the root document.
	for _, ref := range m.Owns.Blobs {
		if err := c.stores.Files.Delete(ref); err != nil && !errors.Is(err, filestore.ErrNotFound) {
			return err
		}
	}
	for _, d := range m.Owns.Docs {
		if err := c.stores.Meta.Delete(d.Collection, d.ID); err != nil && !errors.Is(err, docdb.ErrNotFound) {
			return err
		}
	}
	return c.stores.Meta.Delete(core.ColModels, id)
}

// Stats summarizes the catalog.
type Stats struct {
	Models      int   `json:"models"`
	Snapshots   int   `json:"snapshots"`
	Updates     int   `json:"updates"`
	Provenance  int   `json:"provenance"`
	TotalBytes  int64 `json:"total_bytes"`
	Unreachable int   `json:"unreachable_blobs"`
}

// Stats computes catalog statistics, including the number of file-store
// blobs nothing references (candidates for CollectGarbage).
func (c *Catalog) Stats() (Stats, error) {
	entries, orphans, err := c.survey(true)
	if err != nil {
		return Stats{}, err
	}
	st := Stats{Models: len(entries), Unreachable: len(orphans)}
	for _, e := range entries {
		switch e.Kind {
		case "snapshot":
			st.Snapshots++
		case "update":
			st.Updates++
		case "provenance":
			st.Provenance++
		}
		st.TotalBytes += e.StorageBytes
	}
	return st, nil
}

// survey scans the models as scan does and returns them with the
// file-store blobs that no model owns and no staging record names, sorted.
// The order of its reads keeps a save running beside it safe: a listed blob
// was staged before it was written, and its staging record is deleted only
// after its model committed, so reading the records after the listing and
// the models after the records finds every live blob named at least once.
func (c *Catalog) survey(sized bool) ([]Entry, []string, error) {
	all, err := c.stores.Files.List()
	if err != nil {
		return nil, nil, err
	}
	staged, err := core.StagedBlobs(c.stores.Meta)
	if err != nil {
		return nil, nil, err
	}
	entries, err := c.scan(sized)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		staged = append(staged, e.Owns.Blobs...)
	}
	referenced := make(map[string]bool, len(staged))
	for _, b := range staged {
		referenced[b] = true
	}
	var orphans []string
	for _, b := range all {
		if !referenced[b] {
			orphans = append(orphans, b)
		}
	}
	slices.Sort(orphans)
	return entries, orphans, nil
}

// CollectGarbage deletes file-store blobs that nothing references (e.g.
// artifacts left behind by force-deleted chains) and returns how many blobs
// and bytes were reclaimed. It may run beside saves: the blobs a staging
// record names — a save in flight, or a crashed one — are
// core.RecoverOrphans' to reclaim, never this collector's.
func (c *Catalog) CollectGarbage() (blobs int, bytes int64, err error) {
	_, orphans, err := c.survey(false)
	if err != nil {
		return 0, 0, err
	}
	for _, b := range orphans {
		n, err := c.stores.Files.Size(b)
		if err != nil {
			continue
		}
		if err := c.stores.Files.Delete(b); err != nil {
			return blobs, bytes, err
		}
		blobs++
		bytes += n
	}
	return blobs, bytes, nil
}
