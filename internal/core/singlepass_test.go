package core

import (
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// The tests in this file pin the digest budget of a checksummed save, via
// the tensor.DigestOps counter: every tensor is digested exactly once, and
// StateHash and — for PUA — the layer hashes read those digests. The
// digests run beside the serializer (nn.StateDict.WriteToWithDigests), as
// the blob's content hash runs beside the file writes; a save that digests
// a tensor again for any of its hashes fails here.

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
// subset — all of it must come from one digest per tensor.
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

	trainDerived(t, net, ds)
	ops = digestOpsDuring(func() {
		_, err = pua.Save(SaveInfo{Spec: tinySpec(), Net: net, BaseID: base.ID, WithChecksums: true})
	})
	if err != nil {
		t.Fatal(err)
	}
	if ops != want {
		t.Errorf("derived PUA save computed %d tensor digests, want exactly %d", ops, want)
	}
}

// TestSaveRecordsFileContentHashes: the model document keeps the content
// hashes SaveBytes/SaveAs already computed (they used to be discarded), and
// they match an independent re-hash of the stored blobs.
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
	for _, f := range []struct {
		name, ref, hash string
	}{
		{"code", doc.CodeFileRef, doc.CodeFileHash},
		{"params", doc.ParamsFileRef, doc.ParamsFileHash},
	} {
		if f.hash == "" {
			t.Errorf("%s file hash not recorded in model document", f.name)
			continue
		}
		got, err := stores.Files.Hash(f.ref)
		if err != nil {
			t.Fatal(err)
		}
		if got != f.hash {
			t.Errorf("%s file hash %s does not match stored blob content %s", f.name, f.hash, got)
		}
	}
}
