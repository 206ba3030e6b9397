package nn

import (
	"io"
	"testing"

	"repro/internal/tensor"
)

// saveOps runs the save path's digest pass over a fresh dict of m — what a
// save computes — and returns how many tensors it hashed.
func saveOps(m Module) uint64 {
	before := tensor.DigestOps()
	StateDictOf(m).PrecomputeDigests()
	return tensor.DigestOps() - before
}

// A net loaded from the state of a save, by LoadInto or from a Clone of
// it, digests only what is written after: the copies carry the stamps.
func TestLoadIntoCarriesStamps(t *testing.T) {
	src := demoModel(4)
	n := uint64(StateDictOf(src).Len())
	if ops := saveOps(src); ops != n {
		t.Fatalf("first save pass hashed %d tensors, want %d", ops, n)
	}
	snapshot := StateDictOf(src).Clone()
	dst := demoModel(5)
	if err := snapshot.LoadInto(dst); err != nil {
		t.Fatal(err)
	}
	if ops := saveOps(dst); ops != 0 {
		t.Fatalf("a net loaded from a stamped state hashed %d tensors, want 0", ops)
	}
	fc, _ := StateDictOf(dst).Get("fc.weight")
	fc.Data()[0] += 1
	if ops := saveOps(dst); ops != 1 {
		t.Fatalf("after one write the save pass hashed %d tensors, want 1", ops)
	}
	if got, want := StateDictOf(dst).Hash(), StateDictOf(dst).HashFresh(); got != want {
		t.Fatal("fresh hashes disagree")
	}
}

// A state read back from bytes carries no stamp, and loading it into a
// net leaves none: the stamp-free twin of a net hashes everything.
func TestDecodedStateCarriesNoStamps(t *testing.T) {
	src := demoModel(6)
	saveOps(src)
	pr, pw := io.Pipe()
	go func() { _, err := StateDictOf(src).WriteTo(pw); pw.CloseWithError(err) }()
	decoded, err := ReadStateDict(pr)
	if err != nil {
		t.Fatal(err)
	}
	twin := demoModel(7)
	if err := decoded.LoadInto(twin); err != nil {
		t.Fatal(err)
	}
	if ops, n := saveOps(twin), uint64(decoded.Len()); ops != n {
		t.Fatalf("a net loaded from decoded bytes hashed %d tensors, want %d", ops, n)
	}
}

// Seal, Hash, LayerHashes and EntryHashes on a dict without a save cache
// hash afresh and record nothing the save path could reuse.
func TestFreshHashesRecordNoStamps(t *testing.T) {
	m := demoModel(8)
	sd := StateDictOf(m)
	sd.Hash()
	sd.LayerHashes()
	sd.EntryHashes()
	sd.HashFresh()
	StateDictOf(m).Seal()
	if ops, n := saveOps(m), uint64(sd.Len()); ops != n {
		t.Fatalf("after only fresh hashing the save pass hashed %d tensors, want %d", ops, n)
	}
}

// A write through a tensor of a Clone'd dict stales the stamp the clone
// carries, so loading the clone back into the net makes the next save hash
// the written tensor.
func TestClonedTensorWriteStalesCarriedStamp(t *testing.T) {
	m := demoModel(9)
	saveOps(m)
	c := StateDictOf(m).Clone()
	w, _ := c.Get("fc.bias")
	w.Data()[0] += 1
	if err := c.LoadInto(m); err != nil {
		t.Fatal(err)
	}
	if ops := saveOps(m); ops != 1 {
		t.Fatalf("after a write through a clone's tensor the save pass hashed %d tensors, want 1", ops)
	}
}
