package core_test

import (
	"bytes"
	"encoding/json"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	_ "unsafe" // go:linkname

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/docdb"
	"repro/internal/environment"
	"repro/internal/filestore"
	"repro/internal/models"
	"repro/internal/nn"
)

// legacyModel is one line of testdata/legacystore/manifest.json.
type legacyModel struct {
	Name      string `json:"name"`
	ID        string `json:"id"`
	Kind      string `json:"kind"`
	StateHash string `json:"state_hash"`
}

// getLog records the document reads that pass through it.
type getLog struct {
	docdb.Store
	mu   sync.Mutex
	gets []string // "collection/id"
}

func (g *getLog) Get(col, id string) (docdb.Document, error) {
	g.mu.Lock()
	g.gets = append(g.gets, col+"/"+id)
	g.mu.Unlock()
	return g.Store.Get(col, id)
}

// openLegacyStore copies testdata/legacystore into a temporary directory,
// opens it and returns it with its manifest by model name.
func openLegacyStore(t *testing.T) (core.Stores, map[string]legacyModel) {
	t.Helper()
	src, dst := filepath.Join("testdata", "legacystore"), t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Join(dst, filepath.Dir(rel)), 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	meta, err := docdb.OpenDisk(filepath.Join(dst, "meta"))
	if err != nil {
		t.Fatal(err)
	}
	files, err := filestore.Open(filepath.Join(dst, "files"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dst, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var list []legacyModel
	if err := json.Unmarshal(b, &list); err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]legacyModel, len(list))
	for _, m := range list {
		byName[m.Name] = m
	}
	return core.Stores{Meta: meta, Files: files}, byName
}

// rootField reads one string field of model id's root document.
func rootField(t *testing.T, meta docdb.Store, id, field string) string {
	t.Helper()
	doc, err := meta.Get(core.ColModels, id)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := doc[field].(string)
	return s
}

// recoverToHash recovers id with checksums verified and checks the state
// hashes to want and the environment document was the one the root names.
func recoverToHash(t *testing.T, stores core.Stores, id, want string) {
	t.Helper()
	rs, err := core.NewBaseline(stores).RecoverState(id, core.RecoverOptions{VerifyChecksums: true})
	if err != nil {
		t.Fatalf("recovering %s: %v", id, err)
	}
	if got := rs.State.Hash(); got != want {
		t.Fatalf("%s recovered to %s, want %s", id, got, want)
	}
	if rs.Env.Framework != environment.Version {
		t.Fatalf("%s recovered environment %+v", id, rs.Env)
	}
}

// setAVX2 is package vec's test seam: it turns the AVX2 kernels on (where
// the CPU has them) or off.
//
//go:linkname setAVX2 repro/internal/vec.setAVX2
func setAVX2(on bool) (was bool)

// The store's provenance link was trained by the scalar kernels of
// 45e3924; its replay reaches the recorded hash on the AVX2 kernels and on
// their scalar twins alike.
func TestLegacyProvenanceReplaysOnBothKernelPaths(t *testing.T) {
	stores, byName := openLegacyStore(t)
	m := byName["provenance"]
	for _, on := range []bool{true, false} {
		func() {
			defer setAVX2(setAVX2(on))
			recoverToHash(t, stores, m.ID, m.StateHash)
		}()
	}
}

// A store written before side documents shared their model's id still
// works: every model recovers to its recorded hash through the ids its
// root document names, a parameter update saved on an old leaf reads the
// base's layer hashes under hash_doc_id after the early read missed, and
// the catalog lists, deletes and collects over old and new models alike.
func TestLegacyStoreRecoversSavesAndCatalogs(t *testing.T) {
	stores, byName := openLegacyStore(t)
	if len(byName) != 5 {
		t.Fatalf("manifest lists %d models, want 5", len(byName))
	}
	for _, m := range byName {
		// The fixture is what it claims to be: side documents under ids
		// of their own.
		for _, field := range []string{"env_doc_id", "hash_doc_id", "service_doc_id"} {
			if rootField(t, stores.Meta, m.ID, field) == m.ID {
				t.Fatalf("%s: %s is the model's own id; the store is not legacy", m.Name, field)
			}
		}
		recoverToHash(t, stores, m.ID, m.StateHash)
	}
	// Old root documents record the SHA-256 of their parameter file
	// (params_file_hash), and it still audits as that.
	withFileHash := 0
	for _, m := range byName {
		recorded := rootField(t, stores.Meta, m.ID, "params_file_hash")
		if recorded == "" {
			continue
		}
		withFileHash++
		if got, err := stores.Files.Hash(rootField(t, stores.Meta, m.ID, "params_file_ref")); err != nil || got != recorded {
			t.Fatalf("%s: params_file_hash %s, its blob hashes to %s (err %v)", m.Name, recorded, got, err)
		}
	}
	if withFileHash != 4 {
		t.Fatalf("%d legacy models record params_file_hash, want the 4 that store parameters", withFileHash)
	}

	// A parameter update on the old leaf, then one on the new link.
	leaf := byName["pua2"]
	rm, err := core.NewBaseline(stores).Recover(leaf.ID, core.RecoverOptions{VerifyChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	net := rm.Net
	log := &getLog{Store: stores.Meta}
	logged := stores
	logged.Meta = log
	spec := models.Spec{Arch: models.TinyCNNName, NumClasses: 4}
	saveUpdate := func(base string) (id, hash string) {
		t.Helper()
		w, _ := nn.StateDictOf(net).Get("fc.weight")
		w.Data()[1] += 0.25
		log.gets = nil
		res, err := core.NewParamUpdate(logged).Save(core.SaveInfo{Spec: spec, Net: net, BaseID: base, WithChecksums: true})
		if err != nil {
			t.Fatalf("saving an update on %s: %v", base, err)
		}
		return res.ID, nn.StateDictOf(net).Hash()
	}
	newID, newHash := saveUpdate(leaf.ID)
	// A model derived from a legacy base records the frames hash, which
	// audits against its stored blob, and no file hash.
	if got := rootField(t, stores.Meta, newID, "params_file_hash"); got != "" {
		t.Fatalf("new model records params_file_hash %s", got)
	}
	blob, err := stores.Files.ReadAll(rootField(t, stores.Meta, newID, "params_file_ref"))
	if err != nil {
		t.Fatal(err)
	}
	if audited, err := nn.AuditFramesHash(blob); err != nil || audited != rootField(t, stores.Meta, newID, "params_frames_hash") {
		t.Fatalf("new model records params_frames_hash %q, its blob audits as %s (err %v)", rootField(t, stores.Meta, newID, "params_frames_hash"), audited, err)
	}
	legacyHashDoc := rootField(t, stores.Meta, leaf.ID, "hash_doc_id")
	for _, want := range []string{core.ColLayerHashes + "/" + leaf.ID, core.ColLayerHashes + "/" + legacyHashDoc} {
		if !slices.Contains(log.gets, want) {
			t.Fatalf("the save on the old leaf read %v, want %s among them", log.gets, want)
		}
	}
	for _, field := range []string{"env_doc_id", "hash_doc_id"} {
		if got := rootField(t, stores.Meta, newID, field); got != newID {
			t.Fatalf("new model's %s = %s, want its own id %s", field, got, newID)
		}
	}
	nextID, nextHash := saveUpdate(newID)
	if want := core.ColLayerHashes + "/" + newID; slices.Contains(log.gets, core.ColLayerHashes+"/"+legacyHashDoc) || !slices.Contains(log.gets, want) {
		t.Fatalf("the save on the new link read %v, want %s and no legacy id", log.gets, want)
	}
	recoverToHash(t, stores, newID, newHash)
	recoverToHash(t, stores, nextID, nextHash)

	cat := catalog.New(stores)
	entries, err := cat.List()
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[string]string)
	for _, e := range entries {
		kinds[e.ID] = e.Kind
	}
	want := map[string]string{newID: "update", nextID: "update"}
	for _, m := range byName {
		want[m.ID] = m.Kind
	}
	if !maps.Equal(kinds, want) {
		t.Fatalf("List kinds %v, want %v", kinds, want)
	}

	// Delete a new-layout leaf and a legacy leaf; each takes exactly its
	// own documents and blobs, so the collector then finds only the one
	// blob nothing ever named.
	orphan, _, _, err := stores.Files.Save(bytes.NewReader([]byte("orphan")))
	if err != nil {
		t.Fatal(err)
	}
	prov := byName["provenance"]
	svcDoc := rootField(t, stores.Meta, prov.ID, "service_doc_id")
	for _, id := range []string{nextID, prov.ID} {
		if err := cat.Delete(id, false); err != nil {
			t.Fatalf("Delete(%s): %v", id, err)
		}
	}
	gone := []core.DocRef{
		{core.ColModels, nextID}, {core.ColEnvironments, nextID}, {core.ColLayerHashes, nextID},
		{core.ColModels, prov.ID}, {core.ColServices, svcDoc},
	}
	for _, ref := range gone {
		if _, err := stores.Meta.Get(ref.Collection, ref.ID); err == nil {
			t.Fatalf("%s/%s survived its model's deletion", ref.Collection, ref.ID)
		}
	}
	if n, _, err := cat.CollectGarbage(); err != nil || n != 1 {
		t.Fatalf("CollectGarbage reclaimed %d blob(s), err %v; want the orphan alone", n, err)
	}
	if _, err := stores.Files.Size(orphan); err == nil {
		t.Fatal("the orphan blob survived CollectGarbage")
	}
	if st, err := cat.Stats(); err != nil || st.Models != 5 || st.Unreachable != 0 {
		t.Fatalf("Stats %+v, err %v; want 5 models, nothing unreachable", st, err)
	}
	for _, m := range byName {
		if m.ID != prov.ID {
			recoverToHash(t, stores, m.ID, m.StateHash)
		}
	}
	recoverToHash(t, stores, newID, newHash)
}
