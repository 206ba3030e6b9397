package crashtest

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/docdb"
	"repro/internal/filestore"
	"repro/internal/shard"
)

// TestGCRemovesTornBlob is the torn-write case: the process died inside
// SaveAs, so the staging record is durable, the root document is absent,
// and the blob's half-written temp file sits in the store's directory —
// named by no document and shown by no listing. Rolling the dead
// transaction back must remove it, through Blobs, so it works behind the
// ring too; the temp file of another identifier (a save still in flight
// somewhere) must stay.
func TestGCRemovesTornBlob(t *testing.T) {
	open := func(t *testing.T) (*filestore.Store, string) {
		dir := t.TempDir()
		s, err := filestore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return s, dir
	}
	cases := []struct {
		name string
		// build returns the blob provider and a function naming the
		// directory that holds a given identifier's files.
		build func(t *testing.T) (filestore.Blobs, func(id string) string)
	}{
		{"store", func(t *testing.T) (filestore.Blobs, func(string) string) {
			s, dir := open(t)
			return s, func(string) string { return dir }
		}},
		{"shard.Files", func(t *testing.T) (filestore.Blobs, func(string) string) {
			a, aDir := open(t)
			b, bDir := open(t)
			ring, err := shard.NewRing(2, 0)
			if err != nil {
				t.Fatal(err)
			}
			files, err := shard.NewFiles(ring, a, b)
			if err != nil {
				t.Fatal(err)
			}
			return files, func(id string) string { return []string{aDir, bDir}[ring.Owner("blob/"+id)] }
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			files, dirOf := tc.build(t)
			stores := core.Stores{Meta: docdb.NewMemStore(), Files: files}
			if _, err := core.NewBaseline(stores).Save(core.SaveInfo{Spec: tinySpec(), Net: tinyNet(t, 1), WithChecksums: true}); err != nil {
				t.Fatal(err)
			}
			before := fingerprint(t, stores)

			// Die right after the staging record, then put on disk what a
			// death inside the first SaveAs would have left.
			crashed := stores
			crashed.Crash = crashOn("staged")
			_, err := core.NewBaseline(crashed).Save(core.SaveInfo{Spec: tinySpec(), Net: tinyNet(t, 2), WithChecksums: true})
			if !errors.Is(err, core.ErrInjectedCrash) {
				t.Fatalf("save returned %v, want ErrInjectedCrash", err)
			}
			recIDs, err := stores.Meta.IDs(core.ColStaging)
			if err != nil || len(recIDs) != 1 {
				t.Fatalf("staging records = %v (err %v), want one", recIDs, err)
			}
			rec, err := stores.Meta.Get(core.ColStaging, recIDs[0])
			if err != nil {
				t.Fatal(err)
			}
			staged := rec["blobs"].([]any)
			if len(staged) == 0 {
				t.Fatal("staging record names no blob")
			}
			torn := staged[0].(string)
			tornTmp := filepath.Join(dirOf(torn), torn+".4711.tmp")
			if err := os.WriteFile(tornTmp, []byte("half a model"), 0o600); err != nil {
				t.Fatal(err)
			}
			live := filestore.NewID()
			liveTmp := filepath.Join(dirOf(torn), live+".4712.tmp")
			if err := os.WriteFile(liveTmp, []byte("a save in flight"), 0o600); err != nil {
				t.Fatal(err)
			}

			hidden := func(when string) {
				t.Helper()
				if files.Exists(torn) {
					t.Errorf("%s: Exists shows the torn blob", when)
				}
				if rc, err := files.Open(torn); err == nil {
					rc.Close()
					t.Errorf("%s: Open serves the torn blob", when)
				} else if !errors.Is(err, filestore.ErrNotFound) {
					t.Errorf("%s: Open(torn) = %v, want ErrNotFound", when, err)
				}
				ids, err := files.List()
				if err != nil {
					t.Fatal(err)
				}
				for _, id := range ids {
					if strings.HasPrefix(id, torn) || strings.HasSuffix(id, ".tmp") {
						t.Errorf("%s: List shows %s", when, id)
					}
				}
			}
			hidden("before GC")

			rep, err := core.RecoverOrphans(stores)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Scanned != 1 || rep.RolledBack != 1 {
				t.Fatalf("GC should roll back exactly the dead save: %s", rep)
			}
			hidden("after GC")
			sameFingerprint(t, before, fingerprint(t, stores))
			if _, err := os.Stat(tornTmp); !os.IsNotExist(err) {
				t.Errorf("the dead save's temp file survived GC (stat: %v)", err)
			}
			if _, err := os.Stat(liveTmp); err != nil {
				t.Errorf("GC touched another identifier's temp file: %v", err)
			}
		})
	}
}
