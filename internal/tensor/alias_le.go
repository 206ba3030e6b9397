//go:build amd64 || arm64 || 386 || arm || riscv64 || loong64 || ppc64le || wasm

package tensor

import (
	"hash"
	"io"
	"unsafe"
)

// aliasFloats reinterprets b (little-endian IEEE-754 bytes, len(b) a
// multiple of 4) as a []float32 without copying, or returns nil when
// &b[0] is not 4-byte aligned. This file is only built on little-endian
// platforms, where the serialized byte order is the in-memory byte
// order; everywhere else the copying decode runs instead. The alignment
// check is what keeps the cast legal under checkptr (go test -race):
// version-2 state dicts pad every frame to a 4-byte boundary, while
// version-1 blobs simply fail the check and fall back to copying.
// canAliasFloats reports whether this platform supports zero-copy float
// aliasing at all (alignment still decides per frame).
const canAliasFloats = true

func aliasFloats(b []byte) []float32 {
	if len(b) == 0 {
		return []float32{}
	}
	p := unsafe.Pointer(&b[0])
	if uintptr(p)%4 != 0 {
		return nil
	}
	return unsafe.Slice((*float32)(p), len(b)/4)
}

// floatBytes is the inverse of aliasFloats: f's backing memory viewed as
// bytes, which on a little-endian platform is already the serialized
// IEEE-754 form. Narrowing float32 to byte never breaks alignment, and the
// view stays inside f's allocation (or mapping), so the cast is legal
// under checkptr.
func floatBytes(f []float32) []byte {
	if len(f) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&f[0])), 4*len(f))
}

// writeFloats feeds data's serialized bytes to h and then w (either may be
// nil) straight from tensor memory — no staging copy — and returns the
// number of bytes written to w. With both sinks the bytes go out in
// chunkElems-sized pieces so the writer reads each piece while the hash
// pass has it cache-warm.
func writeFloats(data []float32, h hash.Hash, w io.Writer) (int64, error) {
	b := floatBytes(data)
	if w == nil {
		h.Write(b)
		return 0, nil
	}
	if h == nil {
		m, err := w.Write(b)
		return int64(m), err
	}
	var n int64
	for len(b) > 0 {
		c := b[:min(len(b), 4*chunkElems)]
		h.Write(c)
		m, err := w.Write(c)
		n += int64(m)
		if err != nil {
			return n, err
		}
		b = b[len(c):]
	}
	return n, nil
}
