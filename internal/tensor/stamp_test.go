package tensor

import (
	"fmt"
	"runtime"
	"testing"
)

// stampedOps returns the digests DigestAllStamped gives ts and how many of
// them it had to compute.
func stampedOps(ts ...*Tensor) ([][32]byte, uint64) {
	before := DigestOps()
	d := DigestAllStamped(ts)
	return d, DigestOps() - before
}

// writePaths are every way a tensor's memory is written: through Data(),
// through each in-package mutator, as the destination of the carrying copy,
// and through a Reshape view (by Data() and by a mutator). Each changes at
// least one value of a [2, 3] tensor.
var writePaths = []struct {
	name  string
	write func(t *Tensor)
}{
	{"Data", func(t *Tensor) { t.Data()[4] += 1 }},
	{"Set", func(t *Tensor) { t.Set(9, 1, 2) }},
	{"Fill", func(t *Tensor) { t.Fill(7) }},
	{"Zero", func(t *Tensor) { t.Zero() }},
	{"AddInPlace", func(t *Tensor) { AddInPlace(t, Full(1, 2, 3)) }},
	{"Axpy", func(t *Tensor) { Axpy(2, t, Full(1, 2, 3)) }},
	{"CopyFrom", func(t *Tensor) { t.CopyFrom(Full(5, 2, 3)) }},
	{"view Data", func(t *Tensor) { t.Reshape(6).Data()[0] = -1 }},
	{"view Fill", func(t *Tensor) { t.Reshape(3, 2).Fill(-2) }},
}

func stampTestTensor() *Tensor {
	return Uniform(NewRNG(11), 1, 2, 2, 3)
}

// Every write path stales the stamp: the save pass after it re-hashes the
// tensor and gets the new bytes' digest, and a save pass with no write in
// between re-hashes nothing.
func TestEveryWritePathStalesTheStamp(t *testing.T) {
	for _, p := range writePaths {
		x := stampTestTensor()
		if _, ops := stampedOps(x); ops != 1 {
			t.Fatalf("%s: first save pass computed %d digests, want 1", p.name, ops)
		}
		if _, ops := stampedOps(x); ops != 0 {
			t.Fatalf("%s: an unwritten tensor was re-hashed (%d digests)", p.name, ops)
		}
		p.write(x)
		d, ops := stampedOps(x)
		if ops != 1 || d[0] != x.Digest() {
			t.Errorf("%s: the save pass after the write computed %d digests, stamped digest current: %v", p.name, ops, d[0] == x.Digest())
		}
	}
}

// A write through the source stales a view's stamp and the other way
// round: views share one generation.
func TestViewsShareTheGeneration(t *testing.T) {
	x := stampTestTensor()
	v := x.Reshape(3, 2)
	if _, ops := stampedOps(x, v); ops != 2 {
		t.Fatalf("stamping a tensor and its view computed %d digests, want 2", ops)
	}
	x.Set(0, 0, 0)
	if d, ops := stampedOps(v); ops != 1 || d[0] != v.Digest() {
		t.Fatalf("a write through the source left the view's stamp current (%d digests)", ops)
	}
	v.Data()[5] = 3
	if d, ops := stampedOps(x); ops != 1 || d[0] != x.Digest() {
		t.Fatalf("a write through the view left the source's stamp current (%d digests)", ops)
	}
}

// Clone and CopyFrom carry a current stamp — the copy's save pass hashes
// nothing and still gets its digest — but never a stale one, and the
// copy's own writes stale what it carried.
func TestCopiesCarryOnlyCurrentStamps(t *testing.T) {
	src := stampTestTensor()
	stampedOps(src)
	for name, cp := range map[string]func() *Tensor{
		"Clone":    src.Clone,
		"CopyFrom": func() *Tensor { c := Zeros(2, 3); c.CopyFrom(src); return c },
	} {
		c := cp()
		if d, ops := stampedOps(c); ops != 0 || d[0] != src.Digest() {
			t.Errorf("%s of a stamped tensor: %d digests, carried digest right: %v", name, ops, d[0] == src.Digest())
		}
		c.Data()[0] = 42
		if d, ops := stampedOps(c); ops != 1 || d[0] != c.Digest() {
			t.Errorf("%s: a write to the copy kept the carried stamp (%d digests)", name, ops)
		}
	}
	src.Data()[0] = 8
	if _, ops := stampedOps(src.Clone()); ops != 1 {
		t.Errorf("a clone of a written tensor carried its stale stamp (%d digests)", ops)
	}
}

// A tensor built by New over a caller's slice never records a stamp: the
// caller can write the slice without any accessor.
func TestNewNeverStamps(t *testing.T) {
	data := []float32{1, 2, 3}
	x := New(data, 3)
	stampedOps(x)
	data[1] = 5
	if d, ops := stampedOps(x); ops != 1 || d[0] != x.Digest() {
		t.Fatalf("a New tensor's stamp hid a write to the caller's slice (%d digests)", ops)
	}
	if _, ops := stampedOps(x.Clone()); ops != 1 {
		t.Fatalf("a clone of a New tensor carried a stamp")
	}
}

// The fresh paths neither read nor record stamps. A stamped tensor whose
// memory is written behind the generation's back — which only this package
// can do — keeps its stale stamp on the save path, while Hash, Digest and
// DigestAll see the new bytes; and they leave no stamp behind for the save
// path to reuse.
func TestFreshPathsIgnoreStamps(t *testing.T) {
	x := stampTestTensor()
	stamped, _ := stampedOps(x)
	x.data[0] = 100 // behind tracking
	fresh := x.Digest()
	if fresh == stamped[0] {
		t.Fatal("the write did not change the digest")
	}
	if got := DigestAll([]*Tensor{x}); got[0] != fresh {
		t.Error("DigestAll returned the stamp instead of hashing the bytes")
	}
	if got := x.Hash(); got != fmt.Sprintf("%x", fresh) {
		t.Error("Hash returned the stamp instead of hashing the bytes")
	}
	if d, _ := stampedOps(x); d[0] != stamped[0] {
		t.Error("a fresh pass replaced the stamp")
	}

	y := stampTestTensor()
	DigestAll([]*Tensor{y})
	y.Hash()
	if _, ops := stampedOps(y); ops != 1 {
		t.Errorf("a fresh pass left a stamp the save pass reused (%d digests)", ops)
	}
}

// Concurrent save passes and copies over the same tensors — two saves of
// one net, a clone taken beside a save — read and record stamps without a
// race, and every digest they return is the bytes' own.
func TestConcurrentStampedPassesAgree(t *testing.T) {
	ts := digestTensors()
	want := DigestAll(ts)
	done := make(chan [][32]byte, 4)
	for g := 0; g < 4; g++ {
		go func() {
			clones := make([]*Tensor, len(ts))
			for i, x := range ts {
				clones[i] = x.Clone()
			}
			DigestAllStamped(ts)
			done <- DigestAllStamped(clones)
		}()
	}
	for g := 0; g < 4; g++ {
		got := <-done
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("goroutine result %d: digest %d differs from DigestAll", g, i)
			}
		}
	}
}

// The save pass is bit-identical to the fresh one for any worker count,
// whether it hashes or reads stamps.
func TestDigestAllStampedMatchesDigestAll(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, w := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(w)
		ts := digestTensors()
		want := DigestAll(ts)
		for pass := 0; pass < 2; pass++ {
			got := DigestAllStamped(ts)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("workers=%d pass %d: digest %d differs from DigestAll", w, pass, i)
				}
			}
		}
	}
}

// CloneAll is Clone of each tensor, on one worker or many: equal values in
// storage of its own, the current stamps carried and no stale one, for a
// state below serialCloneBytes and for one above it.
func TestCloneAllMatchesCloneOnAnyWorkerCount(t *testing.T) {
	big := Uniform(NewRNG(3), -1, 1, serialCloneBytes/4+5)
	small := []*Tensor{stampTestTensor(), Scalar(2), Zeros(0), Zeros(4, 1)}
	stale := stampTestTensor()
	stampedOps(stale)
	stale.Data()[0] = 9
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	stampedOps(append([]*Tensor{big}, small...)...)
	for _, w := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(w)
		// The second set holds the one tensor whose stamp is stale.
		for stales, ts := range [][]*Tensor{small, append([]*Tensor{stale, big}, small...)} {
			out := CloneAll(ts)
			if _, ops := stampedOps(out...); ops != uint64(stales) {
				t.Errorf("workers=%d, %d tensors: the copies' save pass hashed %d, want %d", w, len(ts), ops, stales)
			}
			for i, c := range out {
				if !c.Equal(ts[i]) {
					t.Fatalf("workers=%d: copy %d differs from its source", w, i)
				}
				if c.Len() > 0 {
					c.Data()[0]++
					if c.Equal(ts[i]) {
						t.Fatalf("workers=%d: copy %d shares its source's storage", w, i)
					}
				}
			}
		}
	}
}
