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
	hdr, err := t.AppendFrameHeader(make([]byte, 0, 8+4*len(t.shape)))
	if err != nil {
		return 0, err
	}
	m, err := w.Write(hdr)
	if err != nil {
		return int64(m), err
	}
	n, err := writeFloats(t.data, w)
	return int64(m) + n, err
}

// AppendFrameHeader appends the header WriteTo writes before t's data —
// magic, version, rank and dims — to b.
func (t *Tensor) AppendFrameHeader(b []byte) ([]byte, error) {
	if len(t.shape) > math.MaxUint16 {
		return b, fmt.Errorf("tensor: rank %d too large to serialize", len(t.shape))
	}
	b = binary.LittleEndian.AppendUint32(b, magic)
	b = binary.LittleEndian.AppendUint16(b, formatVersion)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(t.shape)))
	for _, d := range t.shape {
		if d > math.MaxUint32 {
			return b, fmt.Errorf("tensor: dimension %d too large to serialize", d)
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(d))
	}
	return b, nil
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
