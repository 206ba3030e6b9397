//go:build !(amd64 || arm64 || 386 || arm || riscv64 || loong64 || ppc64le || wasm)

package tensor

import (
	"encoding/binary"
	"hash"
	"io"
	"math"
)

// aliasFloats on platforms where float32 data cannot alias serialized
// bytes (big-endian byte order): always report "cannot alias" so
// AliasFrames falls back to the copying decode, which converts byte
// order explicitly.
func aliasFloats([]byte) []float32 { return nil }

// canAliasFloats reports whether this platform supports zero-copy float
// aliasing at all.
const canAliasFloats = false

// writeFloats feeds data's serialized bytes to h and then w (either may be
// nil) and returns the number of bytes written to w. Tensor memory is not
// in serialized byte order here, so every chunkElems values are converted
// through a pooled staging buffer first.
func writeFloats(data []float32, h hash.Hash, w io.Writer) (int64, error) {
	bufp := stagingPool.Get().(*[]byte)
	defer stagingPool.Put(bufp)
	buf := *bufp
	var n int64
	for off := 0; off < len(data); off += chunkElems {
		chunk := data[off:min(off+chunkElems, len(data))]
		for i, v := range chunk {
			binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(v))
		}
		raw := buf[:len(chunk)*4]
		if h != nil {
			h.Write(raw)
		}
		if w != nil {
			m, err := w.Write(raw)
			n += int64(m)
			if err != nil {
				return n, err
			}
		}
	}
	return n, nil
}
