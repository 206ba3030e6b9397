// Package catalog implements the server-side model catalog: the paper's U4
// requirement that "the server has to monitor every model that exists and
// has to be able to losslessly recover it when requested". It provides
// lineage queries over the base-model references the save approaches store
// (list models, walk derivation chains, find descendants) and a safe
// garbage collector that deletes models together with their private
// artifacts — refusing to break chains that other models still depend on.
package catalog

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/docdb"
	"repro/internal/filestore"
)

// Catalog wraps the shared stores with read-mostly management operations.
type Catalog struct {
	stores core.Stores
}

// New creates a catalog over the given stores.
func New(stores core.Stores) *Catalog {
	return &Catalog{stores: stores}
}

// Entry summarizes one saved model.
type Entry struct {
	ID       string `json:"id"`
	Approach string `json:"approach"`
	BaseID   string `json:"base_id,omitempty"`
	// Kind reports how the model is materialized: "snapshot" (full
	// parameters), "update" (parameter update), or "provenance".
	Kind string `json:"kind"`
	// StorageBytes is the model's own artifact footprint (files only;
	// document sizes are negligible and engine dependent).
	StorageBytes int64 `json:"storage_bytes"`
}

// ErrInUse is returned when deleting a model that other models derive from.
var ErrInUse = errors.New("catalog: model is a base of other models")

// listWorkers bounds the model documents List has in flight at once.
const listWorkers = 16

// List returns every saved model, sorted by identifier for determinism.
// The per-model reads (the model document, a provenance link's service
// document, the blob sizes) are independent, so a bounded pool of workers
// issues them together instead of one round trip after another; each entry
// lands in its identifier's slot, and the first error in identifier order
// is the one returned, as a one-at-a-time listing would.
func (c *Catalog) List() ([]Entry, error) {
	ids, err := c.stores.Meta.IDs(core.ColModels)
	if err != nil {
		return nil, err
	}
	sort.Strings(ids)
	out := make([]Entry, len(ids))
	errs := make([]error, len(ids))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < min(listWorkers, len(ids)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(ids); i = int(next.Add(1) - 1) {
				out[i], errs[i] = c.Get(ids[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Get returns the catalog entry of one model.
func (c *Catalog) Get(id string) (Entry, error) {
	raw, err := c.stores.Meta.Get(core.ColModels, id)
	if errors.Is(err, docdb.ErrNotFound) {
		return Entry{}, fmt.Errorf("%w: %s", core.ErrModelNotFound, id)
	}
	if err != nil {
		return Entry{}, err
	}
	return c.entry(id, raw), nil
}

// entry summarizes the model document raw stored under id.
func (c *Catalog) entry(id string, raw docdb.Document) Entry {
	e := Entry{ID: id}
	e.Approach, _ = raw["approach"].(string)
	e.BaseID, _ = raw["base_id"].(string)
	switch {
	case str(raw["code_file_ref"]) != "":
		e.Kind = "snapshot"
	case str(raw["params_file_ref"]) != "":
		e.Kind = "update"
	case str(raw["service_doc_id"]) != "":
		e.Kind = "provenance"
	default:
		e.Kind = "unknown"
	}
	for _, ref := range c.fileRefs(raw) {
		if n, err := c.stores.Files.Size(ref); err == nil {
			e.StorageBytes += n
		}
	}
	return e
}

func str(v any) string {
	s, _ := v.(string)
	return s
}

// fileRefs collects the file-store references a model document owns,
// including those of its train-service document.
func (c *Catalog) fileRefs(raw docdb.Document) []string {
	var refs []string
	add := func(v any) {
		if s := str(v); s != "" {
			refs = append(refs, s)
		}
	}
	add(raw["code_file_ref"])
	add(raw["params_file_ref"])
	if svcID := str(raw["service_doc_id"]); svcID != "" {
		if svcRaw, err := c.stores.Meta.Get(core.ColServices, svcID); err == nil {
			if ref := str(svcRaw["dataset_ref"]); ref != "" && !strings.HasPrefix(ref, "external:") {
				refs = append(refs, ref)
			}
			for _, w := range asMap(svcRaw["wrappers"]) {
				add(asMap(w)["state_file_ref"])
			}
		}
	}
	return refs
}

// asMap normalizes the two map types JSON documents decode into.
func asMap(v any) map[string]any {
	switch m := v.(type) {
	case map[string]any:
		return m
	case docdb.Document:
		return map[string]any(m)
	default:
		return nil
	}
}

// Chain returns the derivation chain from id down to its root, past any
// snapshot: [id, base, base-of-base, ..., root]. The model documents come a
// chain read at a time, and a read is issued again only where an answer
// stopped short.
func (c *Catalog) Chain(id string) ([]Entry, error) {
	var out []Entry
	seen := map[string]bool{}
	var ahead []docdb.Document // read by the last chain read, id's first
	for id != "" {
		if seen[id] {
			return nil, fmt.Errorf("catalog: derivation cycle at %s", id)
		}
		seen[id] = true
		if len(ahead) == 0 {
			var err error
			ahead, err = c.stores.Meta.Chain(core.ColModels, id, "base_id", "")
			if err == nil && len(ahead) == 0 {
				err = docdb.ErrNotFound // an answer starts with id
			}
			if errors.Is(err, docdb.ErrNotFound) {
				return nil, fmt.Errorf("%w: %s", core.ErrModelNotFound, id)
			}
			if err != nil {
				return nil, err
			}
		}
		e := c.entry(id, ahead[0])
		ahead = ahead[1:]
		out = append(out, e)
		id = e.BaseID
	}
	return out, nil
}

// Children returns the models directly derived from id, sorted. (Documents
// do not carry their own identifiers, so the scan maps ids to documents
// explicitly instead of using Find.)
func (c *Catalog) Children(id string) ([]string, error) {
	ids, err := c.stores.Meta.IDs(core.ColModels)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, cid := range ids {
		raw, err := c.stores.Meta.Get(core.ColModels, cid)
		if err != nil {
			continue
		}
		if str(raw["base_id"]) == id {
			out = append(out, cid)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Descendants returns every model transitively derived from id, sorted.
func (c *Catalog) Descendants(id string) ([]string, error) {
	var out []string
	queue := []string{id}
	seen := map[string]bool{id: true}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		kids, err := c.Children(cur)
		if err != nil {
			return nil, err
		}
		for _, k := range kids {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
				queue = append(queue, k)
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// Roots returns the models with no base reference.
func (c *Catalog) Roots() ([]string, error) {
	ids, err := c.stores.Meta.IDs(core.ColModels)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, id := range ids {
		raw, err := c.stores.Meta.Get(core.ColModels, id)
		if err != nil {
			return nil, err
		}
		if str(raw["base_id"]) == "" {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out, nil
}

// Delete removes a model and its private artifacts. Models that other
// models derive from cannot be deleted unless force is set — deleting a
// base breaks the recursive recovery of every descendant saved with the
// parameter update or provenance approach (baseline descendants only lose
// their lineage link, not recoverability, but the reference still dangles).
func (c *Catalog) Delete(id string, force bool) error {
	raw, err := c.stores.Meta.Get(core.ColModels, id)
	if errors.Is(err, docdb.ErrNotFound) {
		return fmt.Errorf("%w: %s", core.ErrModelNotFound, id)
	}
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
	// Delete owned artifacts, then sub-documents, then the root document.
	for _, ref := range c.fileRefs(raw) {
		if err := c.stores.Files.Delete(ref); err != nil && !errors.Is(err, filestore.ErrNotFound) {
			return err
		}
	}
	for col, key := range map[string]string{
		core.ColEnvironments: "env_doc_id",
		core.ColLayerHashes:  "hash_doc_id",
		core.ColServices:     "service_doc_id",
	} {
		if ref := str(raw[key]); ref != "" {
			if err := c.stores.Meta.Delete(col, ref); err != nil && !errors.Is(err, docdb.ErrNotFound) {
				return err
			}
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
// blobs no model references (candidates for CollectGarbage).
func (c *Catalog) Stats() (Stats, error) {
	entries, err := c.List()
	if err != nil {
		return Stats{}, err
	}
	var st Stats
	st.Models = len(entries)
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
	orphans, err := c.unreferencedBlobs()
	if err != nil {
		return Stats{}, err
	}
	st.Unreachable = len(orphans)
	return st, nil
}

// unreferencedBlobs lists file-store blobs that no model document
// references.
func (c *Catalog) unreferencedBlobs() ([]string, error) {
	referenced := map[string]bool{}
	ids, err := c.stores.Meta.IDs(core.ColModels)
	if err != nil {
		return nil, err
	}
	for _, id := range ids {
		raw, err := c.stores.Meta.Get(core.ColModels, id)
		if err != nil {
			return nil, err
		}
		for _, ref := range c.fileRefs(raw) {
			referenced[ref] = true
		}
	}
	all, err := c.stores.Files.List()
	if err != nil {
		return nil, err
	}
	var orphans []string
	for _, b := range all {
		if !referenced[b] {
			orphans = append(orphans, b)
		}
	}
	sort.Strings(orphans)
	return orphans, nil
}

// CollectGarbage deletes file-store blobs that no model references (e.g.
// artifacts left behind by force-deleted chains) and returns how many blobs
// and bytes were reclaimed.
func (c *Catalog) CollectGarbage() (blobs int, bytes int64, err error) {
	orphans, err := c.unreferencedBlobs()
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
