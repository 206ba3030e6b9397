package tensor

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
)

// Binary format (little endian):
//
//	magic   uint32  0x544e5352 ("RSNT")
//	version uint16  1
//	ndim    uint16
//	dims    ndim × uint32
//	data    prod(dims) × float32 (IEEE-754 bits)
//
// The format is fixed and platform independent so tensors serialized on one
// machine deserialize bit-identically on another — a requirement for the
// paper's cross-machine model recovery.
const (
	magic         = 0x544e5352
	formatVersion = 1
)

// chunkElems is the number of float32 values in one staging-buffer fill
// where tensor memory is not in serialized byte order (alias_fallback.go).
const chunkElems = 4096

// WriteTo serializes t to w in the binary tensor format and returns the
// number of bytes written: one Write for the header, one for the data.
func (t *Tensor) WriteTo(w io.Writer) (int64, error) {
	if len(t.shape) > math.MaxUint16 {
		return 0, fmt.Errorf("tensor: rank %d too large to serialize", len(t.shape))
	}
	hdr := make([]byte, 8, 8+4*len(t.shape))
	binary.LittleEndian.PutUint32(hdr[:4], magic)
	binary.LittleEndian.PutUint16(hdr[4:6], formatVersion)
	binary.LittleEndian.PutUint16(hdr[6:8], uint16(len(t.shape)))
	for _, d := range t.shape {
		if d > math.MaxUint32 {
			return 0, fmt.Errorf("tensor: dimension %d too large to serialize", d)
		}
		hdr = binary.LittleEndian.AppendUint32(hdr, uint32(d))
	}
	m, err := w.Write(hdr)
	if err != nil {
		return int64(m), err
	}
	n, err := writeFloats(t.data, w)
	return int64(m) + n, err
}

// SerializedSize returns the exact number of bytes WriteTo will produce.
func (t *Tensor) SerializedSize() int64 {
	return int64(8 + 4*len(t.shape) + 4*len(t.data))
}

// Hash returns the hex-encoded SHA-256 digest of the tensor's shape and raw
// IEEE-754 data. Equal tensors hash equally on every platform; this is the
// per-layer checksum the parameter update approach stores in its Merkle tree
// and the baseline stores for recovery verification. Hash is the hex form of
// Digest; hot paths that hash many tensors use Digest/DigestAll directly.
func (t *Tensor) Hash() string {
	d := t.Digest()
	return hex.EncodeToString(d[:])
}
