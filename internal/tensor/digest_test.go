package tensor

import (
	"encoding/hex"
	"runtime"
	"testing"
	"testing/quick"
)

// digestTensors builds a deliberately awkward mix of shapes: empty, scalar,
// odd lengths that do not divide the staging chunk, exactly one chunk, and
// one-past-a-chunk boundary.
func digestTensors() []*Tensor {
	rng := NewRNG(7)
	return []*Tensor{
		Zeros(0),
		Zeros(3, 0, 5),
		Scalar(1.5),
		Uniform(rng, -1, 1, 1),
		Uniform(rng, -1, 1, 17),
		Uniform(rng, -1, 1, 5, 31),
		Uniform(rng, -1, 1, chunkElems),
		Uniform(rng, -1, 1, chunkElems+1),
		Uniform(rng, -1, 1, 3*chunkElems-7),
	}
}

// Property: DigestAll is bit-identical to serial per-tensor digests for any
// worker count — parallelism must never change stored bytes.
func TestDigestAllMatchesSerialAcrossWorkerCounts(t *testing.T) {
	ts := digestTensors()
	want := make([][32]byte, len(ts))
	for i, x := range ts {
		want[i] = x.Digest()
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, w := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(w)
		got := DigestAll(ts)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: got %d digests, want %d", w, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("workers=%d: digest %d differs from serial", w, i)
			}
		}
	}
}

// Property: Digest is the binary form of Hash, for arbitrary tensors.
func TestDigestMatchesHashProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		x := Uniform(rng, -10, 10, rng.Intn(3*chunkElems)+1)
		d := x.Digest()
		return hex.EncodeToString(d[:]) == x.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// DigestOps must count every digest computation — the counter backs the
// single-pass regression tests in internal/core.
func TestDigestOpsCounts(t *testing.T) {
	x := Scalar(2)
	before := DigestOps()
	x.Digest()
	DigestAll([]*Tensor{x})
	x.Hash()
	if got := DigestOps() - before; got != 3 {
		t.Fatalf("DigestOps delta = %d, want 3", got)
	}
}
