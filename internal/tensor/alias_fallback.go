//go:build !(amd64 || arm64 || 386 || arm || riscv64 || loong64 || ppc64le || wasm)

package tensor

import (
	"encoding/binary"
	"io"
	"math"
	"sync"
)

// aliasFloats on platforms where float32 data cannot alias serialized
// bytes (big-endian byte order): always report "cannot alias" so
// AliasFrames falls back to the copying decode, which converts byte
// order explicitly.
func aliasFloats([]byte) []float32 { return nil }

// canAliasFloats reports whether this platform supports zero-copy float
// aliasing at all.
const canAliasFloats = false

// stagingPool recycles the 16 KB staging buffers of writeFloats instead of
// allocating one per call.
var stagingPool = sync.Pool{
	New: func() any {
		b := make([]byte, 4*chunkElems)
		return &b
	},
}

// writeFloats writes data's serialized bytes to w and returns the number
// of bytes written. Tensor memory is not in serialized byte order here, so
// every chunkElems values are converted through a pooled staging buffer
// first.
func writeFloats(data []float32, w io.Writer) (int64, error) {
	bufp := stagingPool.Get().(*[]byte)
	defer stagingPool.Put(bufp)
	buf := *bufp
	var n int64
	for off := 0; off < len(data); off += chunkElems {
		chunk := data[off:min(off+chunkElems, len(data))]
		for i, v := range chunk {
			binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(v))
		}
		m, err := w.Write(buf[:len(chunk)*4])
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
