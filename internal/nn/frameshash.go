package nn

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"

	"repro/internal/par"
	"repro/internal/tensor"
)

// The frames hash is the content hash a save records for a serialized
// state dict: the SHA-256 of the blob's bytes with the data region of each
// tensor frame replaced by that tensor's 32-byte digest (tensor.Digest:
// rank, dims, data). Every other byte enters as stored — magic, version,
// count, key records, pad bytes, frame headers and anything after the
// last frame — so the hash commits to every byte of the blob through
// SHA-256, and a save that already holds the per-tensor digests computes
// it in O(entries) instead of a second pass over the parameter bytes.
//
// There are two ways to compute it and they must agree: FramesHash from a
// dict's digests (the save side) and AuditFramesHash from stored bytes
// (every check).

// FramesHash returns the frames hash of the blob WriteTo writes for sd.
// It reads the digest cache a save's WriteToWithDigests or
// PrecomputeDigests filled, or digests afresh when there is none.
func (sd *StateDict) FramesHash() (string, error) {
	digests := sd.readDigests()
	h := sha256.New()
	b := appendDictHead(nil, len(sd.entries))
	h.Write(b)
	off := int64(len(b))
	var err error
	for i, e := range sd.entries {
		if b, err = appendEntryHead(b[:0], off, e.Key); err != nil {
			return "", err
		}
		off += int64(len(b)) + e.Tensor.SerializedSize()
		if b, err = e.Tensor.AppendFrameHeader(b); err != nil {
			return "", err
		}
		b = append(b, digests[i][:]...)
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// AuditFramesHash recomputes the frames hash of a stored state dict from
// its bytes alone. It locates the frames with the decoders' scanner, never
// decoding a dict, so pad bytes count as stored, and digests the frames
// in parallel. Any version the scanner accepts audits; bytes it rejects
// are an error.
func AuditFramesHash(b []byte) (string, error) {
	_, offs, err := scanStateDict(b)
	if err != nil {
		return "", err
	}
	type frame struct {
		digest       [sha256.Size]byte
		dataOff, end int
	}
	frames := make([]frame, len(offs))
	err = par.For(len(offs), runtime.GOMAXPROCS(0), func(i int) (err error) {
		f := &frames[i]
		f.digest, f.dataOff, f.end, err = tensor.FrameDigest(b, offs[i])
		return err
	})
	if err != nil {
		return "", fmt.Errorf("nn: auditing tensor frames: %w", err)
	}
	h := sha256.New()
	stored := 0
	for _, f := range frames {
		h.Write(b[stored:f.dataOff])
		h.Write(f.digest[:])
		stored = f.end
	}
	h.Write(b[stored:])
	return hex.EncodeToString(h.Sum(nil)), nil
}
