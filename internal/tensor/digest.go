package tensor

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Content hashing is on the save/recover hot path: every checksummed save
// and every verified recovery digests all parameter bytes. This file keeps
// that pass cheap (tensor memory fed to SHA-256 in place where the platform's
// byte order allows, raw digests without hex round trips) and parallel (a
// bounded worker pool over independent per-tensor digests).

// digestOps counts per-tensor digest computations process-wide, on the
// shared obs registry. It exists so tests can assert the single-pass save
// invariant: one save computes each tensor's digest exactly once, no matter
// how many consumers (state hash, layer hashes, Merkle leaves) need it.
var digestOps = obs.Default().Counter("tensor.digest_ops")

// DigestOps returns the number of per-tensor digest computations performed
// so far by this process. Instrumentation for tests and benchmarks.
func DigestOps() uint64 { return uint64(digestOps.Value()) }

// digestShapeInto feeds the digest preamble — rank then dims, little
// endian — into h. The preamble is part of the hashed content so tensors
// with equal data but different shapes hash differently.
func (t *Tensor) digestShapeInto(h hash.Hash) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(len(t.shape)))
	h.Write(b[:])
	for _, d := range t.shape {
		binary.LittleEndian.PutUint32(b[:], uint32(d))
		h.Write(b[:])
	}
}

// Digest returns the raw SHA-256 digest of the tensor's shape and IEEE-754
// data — the binary form of Hash. Prefer Digest where the hex encoding is
// not needed (caches, worker pools, Merkle assembly).
func (t *Tensor) Digest() [sha256.Size]byte {
	h := sha256.New()
	t.digestShapeInto(h)
	writeFloats(t.data, h) // a hash never fails a write
	digestOps.Add(1)
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// DigestAll computes the content digests of ts with up to Workers()
// goroutines. Each digest is independent, so out[i] is bit-identical to
// ts[i].Digest() for any worker count — parallelism changes wall-clock
// time, never bytes. Workers claim tensors one at a time off a shared
// counter, which load-balances the highly skewed tensor sizes of real
// architectures better than static chunking.
func DigestAll(ts []*Tensor) [][sha256.Size]byte {
	out := make([][sha256.Size]byte, len(ts))
	w := workers
	if w > len(ts) {
		w = len(ts)
	}
	if w <= 1 {
		for i, t := range ts {
			out[i] = t.Digest()
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ts) {
					return
				}
				out[i] = ts[i].Digest()
			}
		}()
	}
	wg.Wait()
	return out
}
