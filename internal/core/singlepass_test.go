package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/train"
)

// The tests in this file pin the digest budget of a checksummed save, via
// the tensor.DigestOps counter: every tensor is digested exactly once, and
// StateHash, the parameter blob's frames hash and — for PUA — the layer
// hashes read those digests. The digests run beside the serializer
// (nn.StateDict.WriteToWithDigests); a save that digests a tensor again
// for any of its hashes fails here. The frames hash is then checked
// against the stored bytes.

// digestOpsDuring returns how many per-tensor digest computations f caused.
// The counter is global, so these tests cannot run in parallel with other
// digest-heavy tests; they are fast enough not to need t.Parallel anyway.
func digestOpsDuring(f func()) uint64 {
	before := tensor.DigestOps()
	f()
	return tensor.DigestOps() - before
}

// TestBaselineSaveDigestsEachTensorOnce: a checksummed BA save computes the
// state hash from the digests produced while serializing — one digest per
// tensor, no second pass.
func TestBaselineSaveDigestsEachTensorOnce(t *testing.T) {
	stores := testStores(t)
	net := tinyNet(t, 9)
	want := uint64(nn.StateDictOf(net).Len())

	var err error
	ops := digestOpsDuring(func() {
		_, err = NewBaseline(stores).Save(SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true})
	})
	if err != nil {
		t.Fatal(err)
	}
	if ops != want {
		t.Errorf("checksummed BA save computed %d tensor digests, want exactly %d (one per tensor)", ops, want)
	}
}

// TestPUASavesDigestEachTensorOnce: both PUA save shapes stay single-pass.
// The initial snapshot needs the state hash AND per-layer hashes; a derived
// save needs current layer hashes for diffing AND digests for the stored
// subset — all of it must come from one digest per tensor. A derived
// model's training run takes its result hash through the same stamped
// pass, so training and the save together digest each tensor once, and
// the save itself none.
func TestPUASavesDigestEachTensorOnce(t *testing.T) {
	stores := testStores(t)
	pua := NewParamUpdate(stores)
	ds := tinyDataset(t)
	net := tinyNet(t, 9)
	want := uint64(nn.StateDictOf(net).Len())

	var base SaveResult
	var err error
	ops := digestOpsDuring(func() {
		base, err = pua.Save(SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true})
	})
	if err != nil {
		t.Fatal(err)
	}
	if ops != want {
		t.Errorf("initial PUA save computed %d tensor digests, want exactly %d", ops, want)
	}

	var saveOps uint64
	ops = digestOpsDuring(func() {
		trainDerived(t, net, ds)
		saveOps = digestOpsDuring(func() {
			_, err = pua.Save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: base.ID, WithChecksums: true})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if ops != want || saveOps != 0 {
		t.Errorf("training and the derived PUA save computed %d tensor digests, the save %d; want exactly %d and 0", ops, saveOps, want)
	}
}

// An adaptive snapshot → provenance → update chain: the provenance save
// reads its layer hashes from the stamps its training recorded and digests
// nothing, and the update after it digests only the tensors written since.
func TestAdaptiveChainDigestsOnlyWrittenTensors(t *testing.T) {
	stores := testStores(t)
	ad := NewAdaptive(stores)
	net := tinyNet(t, 9)
	save := func(label, base string, rec *ProvenanceRecord, kind linkKind, want uint64) string {
		t.Helper()
		var res SaveResult
		var err error
		ops := digestOpsDuring(func() {
			res, err = ad.Save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: base, WithChecksums: true, Provenance: rec})
		})
		if err != nil {
			t.Fatal(err)
		}
		doc, err := getModelDoc(stores.Meta, res.ID)
		if err != nil {
			t.Fatal(err)
		}
		if doc.kind() != kind {
			t.Fatalf("%s: saved a %q link, want %q", label, doc.kind(), kind)
		}
		if ops != want {
			t.Errorf("%s: the save computed %d tensor digests, want %d", label, ops, want)
		}
		return res.ID
	}
	root := save("snapshot", "", nil, snapshotLink, uint64(nn.StateDictOf(net).Len()))

	// Everything trainable and a tiny dataset: a provenance link.
	nn.SetTrainable(net, true)

	tinyDS, err := dataset.Generate(dataset.Spec{Name: "tiny", Images: 4, H: 8, W: 8, Classes: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	loader, err := train.NewDataLoader(tinyDS, train.LoaderConfig{BatchSize: 2, OutH: 8, OutW: 8, Shuffle: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewProvenanceRecord(train.NewImageClassifierTrainService(
		train.ServiceConfig{Epochs: 1, Seed: 6, Deterministic: true}, loader, train.NewSGD(train.SGDConfig{LR: 0.01, Momentum: 0.9})))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Train(net); err != nil {
		t.Fatal(err)
	}
	prov := save("provenance", root, rec, provenanceLink, 0)

	poke(t, net, "fc.weight", 0.5)
	poke(t, net, "fc.bias", 0.5)
	save("update", prov, nil, updateLink, 2)
}

// paramsSave is a saved model that stores parameters: its root document
// and its stored parameter blob.
type paramsSave struct {
	name string
	doc  modelDoc
	blob []byte
}

// paramsSaves saves one model of each shape that stores a parameter blob:
// a checksummed BA snapshot, an unchecksummed one, a PUA update, and the
// adaptive policy's snapshot and updates.
func paramsSaves(t *testing.T) []paramsSave {
	t.Helper()
	stores := testStores(t)
	var out []paramsSave
	add := func(name, id string) {
		t.Helper()
		doc, err := getModelDoc(stores.Meta, id)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := stores.Files.ReadAll(doc.ParamsFileRef)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, paramsSave{name, doc, blob})
	}
	save := func(svc SaveService, info SaveInfo) string {
		t.Helper()
		res, err := svc.Save(info)
		if err != nil {
			t.Fatal(err)
		}
		return res.ID
	}
	add("BA", save(NewBaseline(stores), SaveInfo{Spec: tinySpec(), Net: tinyNet(t, 9), WithChecksums: true}))
	add("BA unchecksummed", save(NewBaseline(stores), SaveInfo{Spec: tinySpec(), Net: tinyNet(t, 10)}))
	pua := NewParamUpdate(stores)
	net := tinyNet(t, 11)
	base := save(pua, SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true})
	trainDerived(t, net, tinyDataset(t))
	add("PUA update", save(pua, SaveInfo{Spec: tinySpec(), Net: net, BaseID: base, WithChecksums: true}))
	ids, _ := buildMixedChain(t, stores, 12)
	add("adaptive snapshot", ids[0])
	add("adaptive update", ids[1])
	add("adaptive update after provenance", ids[3])
	return out
}

// TestSaveRecordsFileContentHashes: the model document records the content
// hashes of its blobs, and they match the stored bytes: the model code's is
// the SHA-256 of the blob the file store re-reads; the parameters' is their
// frames hash, which nn.AuditFramesHash recomputes from the stored bytes on
// its own — no digest cache, no stamps, no save-side code.
func TestSaveRecordsFileContentHashes(t *testing.T) {
	stores := testStores(t)
	res, err := NewBaseline(stores).Save(SaveInfo{Spec: tinySpec(), Net: tinyNet(t, 9), WithChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := getModelDoc(stores.Meta, res.ID)
	if err != nil {
		t.Fatal(err)
	}
	if doc.CodeFileHash == "" {
		t.Fatal("code file hash not recorded in model document")
	}
	if got, err := stores.Files.Hash(doc.CodeFileRef); err != nil || got != doc.CodeFileHash {
		t.Fatalf("code file hash %s does not match stored blob content %s (err %v)", doc.CodeFileHash, got, err)
	}
	for _, s := range paramsSaves(t) {
		if s.doc.ParamsFramesHash == "" || s.doc.ParamsFileHash != "" {
			t.Errorf("%s: params_frames_hash %q, params_file_hash %q; want the frames hash alone", s.name, s.doc.ParamsFramesHash, s.doc.ParamsFileHash)
			continue
		}
		got, err := nn.AuditFramesHash(s.blob)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if got != s.doc.ParamsFramesHash {
			t.Errorf("%s: recorded frames hash %s, the stored blob audits as %s", s.name, s.doc.ParamsFramesHash, got)
		}
	}
}

// blobRegions returns one offset in each region of a version-2 state-dict
// blob: the entry count, a key, a pad byte, a frame header and frame data.
func blobRegions(t *testing.T, b []byte) map[string]int {
	t.Helper()
	regions := map[string]int{"count": 6, "key": 12}
	off := 10
	for i := 0; i < int(binary.LittleEndian.Uint32(b[6:10])); i++ {
		off += 2 + int(binary.LittleEndian.Uint16(b[off:]))
		if pad := int(b[off]); pad > 0 {
			regions["pad"] = off + 1
		}
		off += 1 + int(b[off])
		regions["frame header"] = off + 8 // the first dim
		ndim := int(binary.LittleEndian.Uint16(b[off+6:]))
		n := 1
		for d := 0; d < ndim; d++ {
			n *= int(binary.LittleEndian.Uint32(b[off+8+4*d:]))
		}
		off += 8 + 4*ndim
		if n > 0 {
			regions["data"] = off + 4*n - 1
		}
		off += 4 * n
	}
	if off != len(b) || len(regions) != 5 {
		t.Fatalf("blob of %d bytes parsed to %d with regions %v", len(b), off, regions)
	}
	return regions
}

// Flipping one byte anywhere in a stored parameter blob changes what it
// audits as: a flip the scanner still accepts — in a key, a pad byte or
// tensor data — yields another hash, and one it rejects an error.
func TestFramesHashAuditCatchesEveryRegion(t *testing.T) {
	for _, s := range paramsSaves(t) {
		clean, err := nn.AuditFramesHash(s.blob)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		for region, off := range blobRegions(t, s.blob) {
			tampered := bytes.Clone(s.blob)
			tampered[off] ^= 0x01
			got, err := nn.AuditFramesHash(tampered)
			if got == clean || got == s.doc.ParamsFramesHash {
				t.Errorf("%s: a flipped %s byte (offset %d) audits as the untouched blob or its record", s.name, region, off)
			}
			if scans := region == "key" || region == "pad" || region == "data"; scans && err != nil {
				t.Errorf("%s: a flipped %s byte fails the audit (%v) instead of changing the hash", s.name, region, err)
			}
		}
	}
}
