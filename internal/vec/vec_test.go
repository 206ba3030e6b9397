package vec

import (
	"encoding/binary"
	"math"
	"testing"
)

// specials are the operands where two float kernels can part ways: signed
// zeros (a skipped term, or −0 + +0), subnormals, infinities (∞·0 is NaN)
// and NaNs of both signs, quiet and signalling, with distinct payloads, so
// a kernel that swaps the operands of a multiply or an add shows which
// NaN it returned.
var specials = []uint32{
	0x00000000, 0x80000000, // ±0
	0x3f800000, 0xbf800000, // ±1
	0x7f800000, 0xff800000, // ±Inf
	0x00000001, 0x807fffff, // subnormals
	0x7f7fffff,             // largest finite
	0x7fc00000, 0xffc00000, // quiet NaNs (the second is x86's default NaN)
	0x7fc12345, 0xffe00001, // quiet NaNs with payloads
	0x7f800001, 0xff912345, // signalling NaNs
	0x3e99999a, // 0.3
}

// operands reads float32s from fuzz bytes: a selector byte picks a special
// (below 128) or takes the next four bytes as raw bits; once the bytes run
// out, values continue as plain normals.
type operands struct {
	data []byte
	i    int
}

func (o *operands) next() float32 {
	if len(o.data) == 0 {
		o.i++
		return float32(o.i%13)*0.37 - 2
	}
	sel := o.data[0]
	o.data = o.data[1:]
	if sel < 128 || len(o.data) < 4 {
		return math.Float32frombits(specials[int(sel)%len(specials)])
	}
	bits := binary.LittleEndian.Uint32(o.data)
	o.data = o.data[4:]
	return math.Float32frombits(bits)
}

// slice returns n operands starting off elements into a fresh backing
// array, so kernels see every alignment.
func (o *operands) slice(n, off int) []float32 {
	s := make([]float32, off+n)[off:]
	for i := range s {
		s[i] = o.next()
	}
	return s
}

// sameBits fails unless got and want agree bit for bit; with anyNaN, two
// NaNs agree whatever their payloads.
func sameBits(t *testing.T, kernel, what string, got, want []float32, anyNaN bool) {
	t.Helper()
	for i := range want {
		if anyNaN && got[i] != got[i] && want[i] != want[i] {
			continue
		}
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: %s[%d] = %#08x, scalar twin %#08x", kernel, what, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// FuzzVecMatchesScalar holds every assembly kernel to its scalar twin bit
// for bit: lengths 0–40 (vector bodies and scalar tails), every alignment,
// and operands that include ±0, subnormals, ±Inf and NaN payloads (Dot8's
// one exception is below).
func FuzzVecMatchesScalar(f *testing.F) {
	f.Add(uint8(17), uint8(3), uint8(0x5a), []byte{0, 1, 9, 10, 11, 12, 13, 14, 4, 5, 1, 0, 200, 1, 2, 3, 4})
	f.Add(uint8(40), uint8(9), uint8(0xff), []byte{12, 13, 14, 11, 10, 9, 12, 13, 14, 11, 0, 1, 0, 1, 12, 14})
	f.Add(uint8(8), uint8(4), uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, n, m, off uint8, data []byte) {
		if !haveAVX2 {
			t.Skip("no AVX2 kernels on this CPU")
		}
		size := int(n) % 41
		o1, o2, o3 := int(off)%8, int(off/8)%8, int(off/64)
		ops := &operands{data: data}

		dst, x := ops.slice(size, o1), ops.slice(size, o2)
		a := ops.next()
		want := append([]float32(nil), dst...)
		axpyGo(want, a, x)
		axpyAVX2(dst, a, x)
		sameBits(t, "axpy", "dst", dst, want, false)

		dst, w, x := ops.slice(size, o1), ops.slice(size, o2), ops.slice(size, o3)
		want = append([]float32(nil), dst...)
		mulAddGo(want, w, x)
		mulAddAVX2(dst, w, x)
		sameBits(t, "mulAdd", "dst", dst, want, false)

		dst, g, x := ops.slice(size, o1), ops.slice(size, o2), ops.slice(size, o3)
		want = append([]float32(nil), dst...)
		mulAddNonzeroGo(want, g, x)
		mulAddNonzeroAVX2(dst, g, x)
		sameBits(t, "mulAddNonzero", "dst", dst, want, false)

		w, v, g := ops.slice(size, o1), ops.slice(size, o2), ops.slice(size, o3)
		mom, lr := ops.next(), ops.next()
		wantW, wantV := append([]float32(nil), w...), append([]float32(nil), v...)
		momentumGo(wantW, wantV, g, mom, lr)
		momentumAVX2(w, v, g, mom, lr)
		sameBits(t, "momentum", "v", v, wantV, false)
		sameBits(t, "momentum", "w", w, wantW, false)

		// Dot8: 0–5 positions (the four-wide body and the single tail),
		// 0–40 taps (whole eight-tap chunks of the transpose and the
		// taps left over). Its twin keeps four sums in registers, and
		// which operand of a sum's add is the first is then the register
		// allocator's choice: a plain build adds the product to the sum,
		// as the kernel does, but the fuzzing build's instrumentation
		// turns it round. So where two NaNs meet in a sum, either may
		// survive; every other bit must match.
		np, nt := int(m)%6, (size+int(m))%41
		acc, w8, xs := ops.slice(8*np, o1), ops.slice(8*nt, o2), ops.slice(np*nt, o3)
		want = append([]float32(nil), acc...)
		dot8Go(want, w8, xs)
		dot8AVX2(acc, w8, xs, make([]float32, 8*nt+o1)[o1:])
		sameBits(t, "dot8", "acc", acc, want, true)
	})
}

// The exported kernels run the scalar twins once the seam turns the
// vector path off, and the seam cannot turn on what the CPU lacks.
func TestSetAVX2(t *testing.T) {
	was := setAVX2(false)
	defer setAVX2(was)
	if useAVX2 {
		t.Fatal("setAVX2(false) left the vector path on")
	}
	if setAVX2(true); useAVX2 != haveAVX2 {
		t.Fatalf("setAVX2(true): vector path %v on a CPU with AVX2 %v", useAVX2, haveAVX2)
	}
	dst := []float32{1, 2, 3}
	Axpy(dst, 2, []float32{1, 1, 1, 9})
	if dst[0] != 3 || dst[1] != 4 || dst[2] != 5 {
		t.Fatalf("Axpy = %v", dst)
	}
}
