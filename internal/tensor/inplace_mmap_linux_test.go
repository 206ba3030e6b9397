package tensor

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// Tensors aliasing a read-only memory mapping — what a recovered parameter
// blob is — are hashed and serialized straight out of the mapping. The
// mapping is PROT_READ, so a stray store through the byte view would fault
// rather than pass unnoticed.
func TestInPlaceOverReadOnlyMapping(t *testing.T) {
	ts := inPlaceTensors()
	buf, offs := buildFrames(t, ts...)
	path := filepath.Join(t.TempDir(), "frames")
	if err := os.WriteFile(path, buf, 0o600); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := syscall.Mmap(int(f.Fd()), 0, len(buf), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		t.Skipf("mmap unavailable: %v", err)
	}
	defer func() {
		if err := syscall.Munmap(m); err != nil {
			t.Error(err)
		}
	}()
	before := AliasedFrames()
	mapped, err := AliasFrames(m, offs, &m)
	if err != nil {
		t.Fatal(err)
	}
	if canAliasFloats && AliasedFrames()-before != uint64(len(ts)) {
		t.Fatalf("aliased %d of %d frames over the mapping", AliasedFrames()-before, len(ts))
	}
	for i, x := range mapped {
		if !x.Equal(ts[i]) {
			t.Fatalf("frame %d decoded differently", i)
		}
		checkInPlace(t, "mapped "+x.String(), x)
	}
}
