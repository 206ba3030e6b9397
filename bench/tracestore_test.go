package main

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/docdb"
	"repro/internal/filestore"
	"repro/internal/models"
	"repro/internal/obs"
)

func TestSelfTimeTakesTheUnionOfOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	recs := []obs.SpanRecord{
		{ID: 1, Name: "op.recover", Start: 0, Dur: 100 * ms},
		// Two fetches that overlap from 30 to 40 cover 10..60 together.
		{ID: 2, Parent: 1, Root: 1, Name: "filestore.openmapped", Start: 10 * ms, Dur: 30 * ms},
		{ID: 3, Parent: 1, Root: 1, Name: "docdb.get", Start: 30 * ms, Dur: 30 * ms},
		// A child that outlives its parent counts only up to the parent's end.
		{ID: 4, Parent: 1, Root: 1, Name: "filestore.open", Start: 80 * ms, Dur: 40 * ms},
		// A grandchild takes time from its parent, not from the root.
		{ID: 5, Parent: 2, Root: 1, Name: "inner", Start: 15 * ms, Dur: 10 * ms},
		{ID: 6, Name: "op.save", Start: 200 * ms, Dur: 7 * ms},
	}
	self := selfTimes(recs)
	for id, want := range map[int64]time.Duration{1: 30 * ms, 2: 20 * ms, 3: 30 * ms, 5: 10 * ms, 6: 7 * ms} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

// A save through the decorators must persist exactly what a save without
// them persists, and a recovery through them must still verify.
func TestDecoratorsAreTransparent(t *testing.T) {
	spec := models.Spec{Arch: models.TinyCNNName, NumClasses: 10}
	net, err := models.New(spec.Arch, spec.NumClasses, 1)
	if err != nil {
		t.Fatal(err)
	}
	newStores := func() core.Stores {
		files, err := filestore.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return core.Stores{Meta: docdb.NewMemStore(), Files: files}
	}
	plain, under := newStores(), newStores()
	tr := newOpTrace(obs.NewTracer())
	traced := core.Stores{Meta: tracedMeta{under.Meta, tr}, Files: tracedFiles{under.Files, tr}}

	info := core.SaveInfo{Spec: spec, Net: net, WithChecksums: true}
	want, err := core.NewParamUpdate(plain).Save(info)
	if err != nil {
		t.Fatal(err)
	}
	end := tr.begin(opSave, "op.save")
	got, err := core.NewParamUpdate(traced).Save(info)
	end()
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.CaptureArtifacts(plain, want.ID)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.CaptureArtifacts(under, got.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatalf("artifacts differ in %s", a.Diff(b))
	}
	if got.StorageBytes != want.StorageBytes {
		t.Errorf("storage bytes %d through the decorators, %d without", got.StorageBytes, want.StorageBytes)
	}
	end = tr.begin(opRecover, "op.recover")
	_, err = core.NewParamUpdate(traced).Recover(got.ID, recoverOpts)
	end()
	if err != nil {
		t.Fatalf("recover through the decorators: %v", err)
	}

	if st := tr.stats[statKey{opSave, "filestore.saveas"}]; st == nil || st.n != 2 || st.bytes != got.FileBytes {
		t.Errorf("save ledger row filestore.saveas = %+v, want 2 calls and %d bytes", st, got.FileBytes)
	}
	if st := tr.stats[statKey{opSave, "docdb.put:" + core.ColStaging}]; st == nil || st.n != 1 {
		t.Errorf("save ledger row for the staging record = %+v, want 1 call", st)
	}
	if st := tr.stats[statKey{opRecover, "docdb"}]; st == nil || st.n == 0 {
		t.Errorf("recover made no document call through the decorator")
	}
	ops := map[int64]string{}
	for _, r := range obs.TracerFrom(tr.root).Records() {
		if r.Parent == 0 {
			ops[r.ID] = r.Name
		}
	}
	for _, r := range obs.TracerFrom(tr.root).Records() {
		if r.Parent != 0 && ops[r.Parent] == "" {
			t.Errorf("span %s has parent %d, which is not an operation span", r.Name, r.Parent)
		}
	}
	if len(ops) != 2 {
		t.Errorf("root spans = %v, want one save and one recover", ops)
	}
}
