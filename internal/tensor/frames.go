package tensor

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"

	"repro/internal/par"
)

// Recovery-side deserialization. A recovered parameter blob is already fully
// in memory (the load/recover split of the TTR breakdown reads the blob
// first), so tensors can be decoded straight out of the byte slice instead
// of through a streaming reader: no staging-buffer copy, and — because the
// frame boundaries are cheap to scan without decoding — independent tensors
// can be decoded by a bounded worker pool, mirroring DigestAll on the save
// side. Decoding is positionwise, so the result is bit-identical for any
// worker count.

// frameHeader parses a tensor frame header at b[off:] and returns the
// shape, the offset of the IEEE-754 data, and the offset just past the
// frame.
func frameHeader(b []byte, off int) (shape []int, dataOff, end int, err error) {
	if off < 0 || len(b)-off < 8 {
		return nil, 0, 0, fmt.Errorf("tensor: truncated frame header")
	}
	if binary.LittleEndian.Uint32(b[off:off+4]) != magic {
		return nil, 0, 0, fmt.Errorf("tensor: bad magic %#x", binary.LittleEndian.Uint32(b[off:off+4]))
	}
	if v := binary.LittleEndian.Uint16(b[off+4 : off+6]); v != formatVersion {
		return nil, 0, 0, fmt.Errorf("tensor: unsupported format version %d", v)
	}
	ndim := int(binary.LittleEndian.Uint16(b[off+6 : off+8]))
	off += 8
	if len(b)-off < 4*ndim {
		return nil, 0, 0, fmt.Errorf("tensor: truncated dims")
	}
	shape = make([]int, ndim)
	for i := range shape {
		shape[i] = int(binary.LittleEndian.Uint32(b[off:]))
		off += 4
	}
	n, ok := frameLen(shape)
	if !ok {
		return nil, 0, 0, fmt.Errorf("tensor: dims %v overflow int", shape)
	}
	// Compare via division: 4*n could overflow int for hostile dims.
	if n > (len(b)-off)/4 {
		return nil, 0, 0, fmt.Errorf("tensor: truncated data (want %d values)", n)
	}
	return shape, off, off + 4*n, nil
}

// frameLen returns the number of values dims describe, or false when that
// product does not fit in an int. Prod wraps there: dims of 65536, 65536,
// 65536, 65536 multiply to 0, and a frame with no data would pass as a
// tensor whose shape claims 2^64 values. Each multiply is checked by a
// division first; a zero dim makes any product 0.
func frameLen(dims []int) (int, bool) {
	if slices.Contains(dims, 0) {
		return 0, true
	}
	n := 1
	for _, d := range dims {
		if d < 0 || n > math.MaxInt/d {
			return 0, false
		}
		n *= d
	}
	return n, true
}

// ScanFrame returns the offset just past the tensor frame starting at
// b[off:] without decoding its data. It validates the header and that the
// data fits in b.
func ScanFrame(b []byte, off int) (int, error) {
	_, _, end, err := frameHeader(b, off)
	return end, err
}

// FrameDigest returns the digest of the tensor frame starting at b[off:]
// — what Digest returns for the tensor it decodes to — computed from the
// stored bytes without decoding them, with the offsets of the frame's data
// and of its end. It is an audit of stored bytes, not a save's digest, so
// DigestOps does not count it.
func FrameDigest(b []byte, off int) (digest [sha256.Size]byte, dataOff, end int, err error) {
	_, dataOff, end, err = frameHeader(b, off)
	if err != nil {
		return digest, 0, 0, err
	}
	// Digest's preamble is the rank as a uint32 and then the dims, which
	// the header stores as uint32s already.
	var rank [4]byte
	binary.LittleEndian.PutUint32(rank[:], uint32(binary.LittleEndian.Uint16(b[off+6:off+8])))
	h := sha256.New()
	h.Write(rank[:])
	h.Write(b[off+8 : end])
	h.Sum(digest[:0])
	return digest, dataOff, end, nil
}

// ReadFromBytes decodes the tensor frame starting at b[off:] and returns
// the tensor and the offset just past the frame: the inverse of WriteTo,
// with no intermediate copies.
func ReadFromBytes(b []byte, off int) (*Tensor, int, error) {
	shape, dataOff, end, err := frameHeader(b, off)
	if err != nil {
		return nil, 0, err
	}
	t := Zeros(shape...)
	decodeData(t.data, b[dataOff:end])
	return t, end, nil
}

// decodeData fills dst with the little-endian IEEE-754 values in src.
func decodeData(dst []float32, src []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}

// aliasedFrames counts tensors decoded zero-copy by AliasFrames, so tests
// and the serve benchmark can confirm aliasing actually engaged instead of
// silently falling back to copies.
var aliasedFrames atomic.Uint64

// AliasedFrames returns the cumulative number of tensor frames decoded
// zero-copy by AliasFrames since process start.
func AliasedFrames() uint64 { return aliasedFrames.Load() }

// AliasFrames decodes the tensor frames starting at offs[i] in b like
// DecodeFrames, but wherever platform and frame alignment allow, the
// returned tensor's float32 data aliases b directly — zero copy, zero
// conversion — and the tensor retains ref so b's backing storage (a
// memory mapping, say) stays reachable while the tensor lives. Frames
// that cannot alias (big-endian platforms, or the 4-byte-misaligned
// frames of version-1 state dicts) fall back to the copying decode, so
// the result is bit-identical to DecodeFrames either way. The caller
// promises b is immutable for the lifetime of the returned tensors.
func AliasFrames(b []byte, offs []int, ref any) ([]*Tensor, error) {
	out := make([]*Tensor, len(offs))
	var pending, pendingIdx []int
	for i, off := range offs {
		shape, dataOff, end, err := frameHeader(b, off)
		if err != nil {
			return nil, fmt.Errorf("tensor: decoding frame %d: %w", i, err)
		}
		if data := aliasFloats(b[dataOff:end]); data != nil {
			out[i] = &Tensor{shape: shape, data: data, ref: ref}
			aliasedFrames.Add(1)
			continue
		}
		pending = append(pending, off)
		pendingIdx = append(pendingIdx, i)
	}
	if len(pending) > 0 {
		ts, err := DecodeFrames(b, pending)
		if err != nil {
			return nil, err
		}
		for j, i := range pendingIdx {
			out[i] = ts[j]
		}
	}
	return out, nil
}

// DecodeFrames decodes the tensor frames starting at offs[i] in b with up
// to GOMAXPROCS workers. Frames are independent, so out[i] is
// bit-identical to a sequential ReadFromBytes(b, offs[i]) for any worker
// count. Workers claim frames one at a time, which load-balances the
// highly skewed tensor sizes of real architectures better than static
// chunking — the same pool as DigestAll. A bad frame fails the decode with
// the lowest such frame's index.
func DecodeFrames(b []byte, offs []int) ([]*Tensor, error) {
	out := make([]*Tensor, len(offs))
	err := par.For(len(offs), runtime.GOMAXPROCS(0), func(i int) (err error) {
		if out[i], _, err = ReadFromBytes(b, offs[i]); err != nil {
			return fmt.Errorf("tensor: decoding frame %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
