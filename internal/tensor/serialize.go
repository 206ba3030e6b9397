package tensor

import (
	"bufio"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
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

// WriteTo serializes t to w in the binary tensor format and returns the
// number of bytes written: one Write for the header, one for the data.
func (t *Tensor) WriteTo(w io.Writer) (int64, error) {
	return t.writeTo(w, nil)
}

// writeTo is WriteTo that additionally feeds the data bytes (not the
// header) into h when h is non-nil.
func (t *Tensor) writeTo(w io.Writer, h hash.Hash) (int64, error) {
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
	n, err := writeFloats(t.data, h, w)
	return int64(m) + n, err
}

// ReadFrom deserializes a tensor from r.
func ReadFrom(r io.Reader) (*Tensor, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("tensor: reading header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[:4]) != magic {
		return nil, fmt.Errorf("tensor: bad magic %#x", binary.LittleEndian.Uint32(hdr[:4]))
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != formatVersion {
		return nil, fmt.Errorf("tensor: unsupported format version %d", v)
	}
	ndim := int(binary.LittleEndian.Uint16(hdr[6:8]))
	shape := make([]int, ndim)
	var db [4]byte
	for i := range shape {
		if _, err := io.ReadFull(br, db[:]); err != nil {
			return nil, fmt.Errorf("tensor: reading dims: %w", err)
		}
		shape[i] = int(binary.LittleEndian.Uint32(db[:]))
	}
	n := Prod(shape)
	t := Zeros(shape...)
	bufp := stagingPool.Get().(*[]byte)
	defer stagingPool.Put(bufp)
	buf := *bufp
	for off := 0; off < n; off += chunkElems {
		end := off + chunkElems
		if end > n {
			end = n
		}
		want := (end - off) * 4
		if _, err := io.ReadFull(br, buf[:want]); err != nil {
			return nil, fmt.Errorf("tensor: reading data: %w", err)
		}
		for i := off; i < end; i++ {
			t.data[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[(i-off)*4:]))
		}
	}
	return t, nil
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
