package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
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
	// Compare via division: 4*n could overflow int for hostile dims.
	n := Prod(shape)
	if n < 0 || n > (len(b)-off)/4 {
		return nil, 0, 0, fmt.Errorf("tensor: truncated data (want %d values)", n)
	}
	return shape, off, off + 4*n, nil
}

// ScanFrame returns the offset just past the tensor frame starting at
// b[off:] without decoding its data. It validates the header and that the
// data fits in b.
func ScanFrame(b []byte, off int) (int, error) {
	_, _, end, err := frameHeader(b, off)
	return end, err
}

// ReadFromBytes decodes the tensor frame starting at b[off:] and returns
// the tensor and the offset just past the frame. It is the in-memory
// counterpart of ReadFrom: same format, no intermediate copies.
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

// CanAlias reports whether this platform can alias float32 tensor data
// over serialized little-endian bytes at all (per-frame alignment still
// decides each case).
func CanAlias() bool { return canAliasFloats }

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
// to Workers() goroutines. Frames are independent, so out[i] is
// bit-identical to a sequential ReadFromBytes(b, offs[i]) for any worker
// count. Workers claim frames one at a time off a shared counter, which
// load-balances the highly skewed tensor sizes of real architectures
// better than static chunking — the same shape as DigestAll.
func DecodeFrames(b []byte, offs []int) ([]*Tensor, error) {
	out := make([]*Tensor, len(offs))
	w := workers
	if w > len(offs) {
		w = len(offs)
	}
	if w <= 1 {
		for i, off := range offs {
			t, _, err := ReadFromBytes(b, off)
			if err != nil {
				return nil, fmt.Errorf("tensor: decoding frame %d: %w", i, err)
			}
			out[i] = t
		}
		return out, nil
	}
	errs := make([]error, len(offs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(offs) {
					return
				}
				t, _, err := ReadFromBytes(b, offs[i])
				out[i], errs[i] = t, err
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("tensor: decoding frame %d: %w", i, err)
		}
	}
	return out, nil
}
