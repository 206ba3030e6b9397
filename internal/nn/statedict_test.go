package nn

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"repro/internal/tensor"
)

func demoModel(seed uint64) Module {
	rng := tensor.NewRNG(seed)
	conv := NewConv2d(1, 2, 3, 1, 1, 1, false)
	InitConv(rng, conv)
	bn := NewBatchNorm2d(2)
	fc := NewLinear(8, 3)
	InitLinear(rng, fc)
	return NewNamedSequential(
		Child{Name: "conv1", Module: conv},
		Child{Name: "bn1", Module: bn},
		Child{Name: "flatten", Module: NewFlatten()},
		Child{Name: "fc", Module: fc},
	)
}

func TestStateDictOfOrderAndContent(t *testing.T) {
	m := demoModel(1)
	sd := StateDictOf(m)
	want := []string{
		"conv1.weight",
		"bn1.weight", "bn1.bias", "bn1.running_mean", "bn1.running_var",
		"fc.weight", "fc.bias",
	}
	entries := sd.Entries()
	if len(entries) != len(want) {
		t.Fatalf("%d entries, want %d", len(entries), len(want))
	}
	for i := range want {
		if entries[i].Key != want[i] {
			t.Fatalf("key %d = %q, want %q", i, entries[i].Key, want[i])
		}
	}
	if sd.NumScalars() != 2*1*3*3+2+2+2+2+3*8+3 {
		t.Fatalf("NumScalars = %d", sd.NumScalars())
	}
}

func TestStateDictRoundTrip(t *testing.T) {
	m := demoModel(2)
	sd := StateDictOf(m)
	var buf bytes.Buffer
	n, err := sd.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != sd.SerializedSize() {
		t.Fatalf("wrote %d, SerializedSize %d", n, sd.SerializedSize())
	}
	got, err := ReadStateDict(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !sd.Equal(got) {
		t.Fatal("round trip not equal")
	}
}

func TestStateDictReadRejectsGarbage(t *testing.T) {
	if _, err := ReadStateDict(strings.NewReader("garbage data here")); err == nil {
		t.Fatal("expected error")
	}
	m := demoModel(3)
	var buf bytes.Buffer
	StateDictOf(m).WriteTo(&buf)
	raw := buf.Bytes()
	if _, err := ReadStateDict(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Fatal("expected error for truncated dict")
	}
}

func TestLoadInto(t *testing.T) {
	src := demoModel(4)
	dst := demoModel(5)
	if StateDictOf(src).Equal(StateDictOf(dst)) {
		t.Fatal("different seeds should give different models")
	}
	if err := StateDictOf(src).LoadInto(dst); err != nil {
		t.Fatal(err)
	}
	if !StateDictOf(src).Equal(StateDictOf(dst)) {
		t.Fatal("LoadInto did not copy state")
	}
	// Loaded state is a copy, not an alias.
	StateDictOf(src).Entries()[0].Tensor.Data()[0] += 1
	if StateDictOf(src).Equal(StateDictOf(dst)) {
		t.Fatal("LoadInto aliased tensors")
	}
}

func TestLoadIntoErrors(t *testing.T) {
	m := demoModel(6)
	empty := NewStateDict()
	if err := empty.LoadInto(m); err == nil {
		t.Fatal("expected error for wrong entry count")
	}
	sd := StateDictOf(m).Clone()
	// Same count, one wrong key.
	wrong := NewStateDict()
	for i, e := range sd.Entries() {
		key := e.Key
		if i == 0 {
			key = "nonsense"
		}
		wrong.Set(key, e.Tensor)
	}
	if err := wrong.LoadInto(m); err == nil {
		t.Fatal("expected error for missing key")
	}
	// Shape mismatch.
	bad := sd.Clone()
	bad.Set("conv1.weight", tensor.Zeros(1, 1, 3, 3))
	if err := bad.LoadInto(m); err == nil {
		t.Fatal("expected error for shape mismatch")
	}
}

func TestLayerOf(t *testing.T) {
	if LayerOf("a.b.c.weight") != "a.b.c" {
		t.Fatal("LayerOf nested failed")
	}
	if LayerOf("weight") != "" {
		t.Fatal("LayerOf flat failed")
	}
}

func TestDiffLayersAndSubset(t *testing.T) {
	a := StateDictOf(demoModel(7)).Clone()
	b := a.Clone()
	// No changes.
	changed, err := a.DiffLayers(b)
	if err != nil || len(changed) != 0 {
		t.Fatalf("DiffLayers = %v, %v", changed, err)
	}
	// Change only the classifier.
	fcW, _ := b.Get("fc.weight")
	fcW.Data()[0] += 1
	changed, err = a.DiffLayers(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 1 || changed[0] != "fc" {
		t.Fatalf("DiffLayers = %v, want [fc]", changed)
	}
	// Subset keeps only the changed layer's entries.
	sub := b.SubsetByLayers(changed)
	if sub.Len() != 2 {
		t.Fatalf("subset len = %d, want 2 (fc.weight, fc.bias)", sub.Len())
	}
	if _, ok := sub.Get("fc.weight"); !ok {
		t.Fatal("subset missing fc.weight")
	}
}

func TestMergeAppliesUpdateWithPriority(t *testing.T) {
	base := StateDictOf(demoModel(8)).Clone()
	update := NewStateDict()
	nw := tensor.Full(7, 3, 8)
	update.Set("fc.weight", nw)

	merged := Merge(base, update)
	got, _ := merged.Get("fc.weight")
	if !got.Equal(nw) {
		t.Fatal("merge did not prioritize update")
	}
	// Other entries come from base, order preserved.
	if merged.Entries()[0].Key != base.Entries()[0].Key || merged.Len() != base.Len() {
		t.Fatal("merge broke base order")
	}
	baseConv, _ := base.Get("conv1.weight")
	mergedConv, _ := merged.Get("conv1.weight")
	if !baseConv.Equal(mergedConv) {
		t.Fatal("merge corrupted unchanged entries")
	}
}

func TestHashesChangeWithContent(t *testing.T) {
	a := StateDictOf(demoModel(9)).Clone()
	b := a.Clone()
	if a.Hash() != b.Hash() {
		t.Fatal("equal dicts must hash equal")
	}
	w, _ := b.Get("conv1.weight")
	w.Data()[0] += 1
	if a.Hash() == b.Hash() {
		t.Fatal("hash must change with content")
	}

	ah, bh := a.LayerHashes(), b.LayerHashes()
	if len(ah) != len(bh) {
		t.Fatal("layer hash count mismatch")
	}
	diffs := 0
	for i := range ah {
		if ah[i].Key != bh[i].Key {
			t.Fatal("layer hash keys differ")
		}
		if ah[i].Hash != bh[i].Hash {
			diffs++
			if ah[i].Key != "conv1" {
				t.Fatalf("unexpected changed layer %q", ah[i].Key)
			}
		}
	}
	if diffs != 1 {
		t.Fatalf("changed layers = %d, want 1", diffs)
	}
}

func TestLayerHashesGroupsEntries(t *testing.T) {
	sd := StateDictOf(demoModel(10))
	lh := sd.LayerHashes()
	// conv1, bn1, fc — three layers own tensors.
	if len(lh) != 3 {
		t.Fatalf("layer hashes = %d, want 3", len(lh))
	}
	if lh[0].Key != "conv1" || lh[1].Key != "bn1" || lh[2].Key != "fc" {
		t.Fatalf("layer order = %v", []string{lh[0].Key, lh[1].Key, lh[2].Key})
	}
}

func TestEntryHashes(t *testing.T) {
	sd := StateDictOf(demoModel(11))
	hashes := sd.EntryHashes()
	if len(hashes) != sd.Len() {
		t.Fatal("entry hash count mismatch")
	}
	for i, h := range hashes {
		if h.Key != sd.Entries()[i].Key || len(h.Hash) != 64 {
			t.Fatalf("bad entry hash %+v", h)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	a := StateDictOf(demoModel(12))
	b := a.Clone()
	bw, _ := b.Get("fc.weight")
	bw.Data()[0] += 100
	aw, _ := a.Get("fc.weight")
	if aw.Data()[0] == bw.Data()[0] {
		t.Fatal("Clone aliased tensors")
	}
}

func TestDiffLayersErrors(t *testing.T) {
	a := StateDictOf(demoModel(13))
	small := NewStateDict()
	if _, err := a.DiffLayers(small); err == nil {
		t.Fatal("expected size mismatch error")
	}
	// Same size, different keys.
	other := NewStateDict()
	for i, e := range a.Entries() {
		key := e.Key
		if i == 1 {
			key = "renamed"
		}
		other.Set(key, e.Tensor)
	}
	if _, err := a.DiffLayers(other); err == nil {
		t.Fatal("expected key mismatch error")
	}
}

func TestReadStateDictWorkerSweepBitIdentical(t *testing.T) {
	m := demoModel(9)
	sd := StateDictOf(m)
	var buf bytes.Buffer
	if _, err := sd.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	wantHash := sd.Hash()

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, w := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(w)
		got, err := ReadStateDictBytes(raw)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !got.Equal(sd) {
			t.Fatalf("workers=%d: decoded dict differs", w)
		}
		if h := got.Hash(); h != wantHash {
			t.Fatalf("workers=%d: hash %s, want %s", w, h, wantHash)
		}
	}
}

func TestReadStateDictBytesTruncatedWithWorkers(t *testing.T) {
	m := demoModel(10)
	var buf bytes.Buffer
	StateDictOf(m).WriteTo(&buf)
	raw := buf.Bytes()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(4)
	if _, err := ReadStateDictBytes(raw[:len(raw)-3]); err == nil {
		t.Fatal("expected error for truncated dict under parallel decode")
	}
}
