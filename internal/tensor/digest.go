package tensor

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"runtime"

	"repro/internal/obs"
	"repro/internal/par"
)

// Content hashing is on the save/recover hot path: every checksummed save
// and every verified recovery digests all parameter bytes. This file keeps
// that pass cheap (tensor memory fed to SHA-256 in place where the platform's
// byte order allows, raw digests without hex round trips) and parallel (a
// bounded worker pool over independent per-tensor digests).
//
// A save also skips what it already hashed: each tensor carries a stamp,
// the digest its last save computed tagged with its write generation, and
// every write path bumps the generation first (Data, Set, Fill, Zero,
// AddInPlace, Axpy, CopyFrom's destination, and any Reshape view, which
// shares the counter). Stamps are recorded by the save path and by a
// provenance record's training run, which takes the trained net's result
// hash through the same pass (DigestAllStamped), and read by the save path
// alone, whose parameter update also guesses its changed layers from them
// (StampCurrent); Digest, DigestAll and Hash always hash afresh, so every
// check of stored bytes stays independent of the stamps.

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

// DigestAll computes the content digests of ts with up to GOMAXPROCS
// workers: a fresh pass over every byte, which neither reads nor
// records stamps. Each digest is independent, so out[i] is bit-identical to
// ts[i].Digest() for any worker count — parallelism changes wall-clock
// time, never bytes.
func DigestAll(ts []*Tensor) [][sha256.Size]byte {
	return digestAll(ts, (*Tensor).Digest)
}

// DigestAllStamped is DigestAll for a save: a tensor whose stamp is
// current — no write since the save that recorded it — yields the stamped
// digest without hashing, and every other tensor is hashed and stamped
// with the generation read before its hashing began. A write that races
// the pass moves the generation past the stamp, so it is re-hashed by the
// next save. Only the save path and a provenance record's training run
// call this; every check of stored bytes against a hash goes through
// DigestAll.
func DigestAllStamped(ts []*Tensor) [][sha256.Size]byte {
	return digestAll(ts, (*Tensor).stampedDigest)
}

// stampedDigest returns t's current stamp, or hashes t and records one.
func (t *Tensor) stampedDigest() [sha256.Size]byte {
	if t.gen == nil {
		return t.Digest()
	}
	g := t.gen.Load()
	if s := t.stamp.Load(); s != nil && s.gen == g {
		return s.digest
	}
	d := t.Digest()
	t.stamp.Store(&stamp{gen: g, digest: d})
	return d
}

// digestAll runs both passes on the worker pool, largest tensor first (see
// largestFirst). out[i] stays indexed by position.
func digestAll(ts []*Tensor, digest func(*Tensor) [sha256.Size]byte) [][sha256.Size]byte {
	order := largestFirst(ts)
	out := make([][sha256.Size]byte, len(ts))
	_ = par.For(len(order), runtime.GOMAXPROCS(0), func(j int) error {
		out[order[j]] = digest(ts[order[j]])
		return nil
	})
	return out
}
