// Package vec holds the float32 loops that dominate a training step —
// the convolution's axpy and 8-output-channel dot, the depthwise
// multiply-adds and SGD's momentum update — each as a scalar Go loop and,
// on amd64 CPUs with AVX2, as an assembly kernel chosen once at init.
//
// The kernels compute bit for bit what their scalar twins compute, because
// model provenance recovers a model by replaying its training, and a
// replay must reach the hash the save recorded on any machine. So a vector
// lane is always a different output element: no sum is split or
// reassociated, a multiply and an add stay two rounded operations (no
// FMA), a skipped term stays skipped (masked lanes, never an added w·0,
// which would turn −0 into +0), and where two NaNs meet, the kernel passes
// the operands in the order the compiled scalar loop does, so even NaN
// payloads agree (but for Dot8's sums, whose order the register allocator
// picks; see FuzzVecMatchesScalar). The scalar twins are both the fallback
// and the oracle.
package vec

// useAVX2 selects the assembly kernels. It is set once, from the CPU, and
// changed only by setAVX2.
var useAVX2 = haveAVX2

// setAVX2 turns the assembly kernels on or off and reports whether they
// were on; it cannot turn them on where the CPU lacks AVX2. It is the test
// seam that runs the scalar twins on machines that have AVX2, so tests of
// the packages built on these kernels check both paths; they reach it with
// go:linkname. It is not safe to call while a kernel runs.
func setAVX2(on bool) (was bool) {
	was, useAVX2 = useAVX2, on && haveAVX2
	return was
}

// Axpy adds a·x to dst element by element. x must be at least as long as
// dst.
func Axpy(dst []float32, a float32, x []float32) {
	x = x[:len(dst)]
	if useAVX2 {
		axpyAVX2(dst, a, x)
		return
	}
	axpyGo(dst, a, x)
}

func axpyGo(dst []float32, a float32, x []float32) {
	x = x[:len(dst)]
	for j, v := range x {
		dst[j] += a * v
	}
}

// Dot8 adds dot products to len(acc)/8 positions' accumulators, eight
// output channels each. w holds the eight channels' weight rows side by
// side, [8][nt] with nt = len(w)/8, and x each position's nt inputs side by
// side: acc[8p+j] gets w[j·nt+t]·x[p·nt+t] for t ascending. scratch, at
// least as long as w, is the vector kernel's working space: it lays the
// rows out tap by tap there, eight lanes to a tap, once per call.
func Dot8(acc, w, x, scratch []float32) {
	n, nt := len(acc)/8, len(w)/8
	acc, w, x, scratch = acc[:8*n], w[:8*nt], x[:n*nt], scratch[:8*nt]
	if useAVX2 {
		dot8AVX2(acc, w, x, scratch)
		return
	}
	dot8Go(acc, w, x)
}

// dot8Go runs each position's channels four at a time, their sums in
// registers.
func dot8Go(acc, w, x []float32) {
	nt := len(w) / 8
	for p := 0; p < len(acc)/8; p++ {
		xp := x[p*nt : (p+1)*nt]
		for l := 0; l < 8; l += 4 {
			w0, w1, w2, w3 := w[l*nt:][:nt], w[(l+1)*nt:][:nt], w[(l+2)*nt:][:nt], w[(l+3)*nt:][:nt]
			s := (*[4]float32)(acc[8*p+l:])
			s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
			for t, v := range xp {
				s0 += w0[t] * v
				s1 += w1[t] * v
				s2 += w2[t] * v
				s3 += w3[t] * v
			}
			s[0], s[1], s[2], s[3] = s0, s1, s2, s3
		}
	}
}

// MulAdd adds w·x to dst element by element. w and x must be at least as
// long as dst.
func MulAdd(dst, w, x []float32) {
	w, x = w[:len(dst)], x[:len(dst)]
	if useAVX2 {
		mulAddAVX2(dst, w, x)
		return
	}
	mulAddGo(dst, w, x)
}

func mulAddGo(dst, w, x []float32) {
	w, x = w[:len(dst)], x[:len(dst)]
	for i := range dst {
		dst[i] += w[i] * x[i]
	}
}

// MulAddNonzero adds g·x to dst element by element where g is not exactly
// zero; elements whose g is ±0 are left as they are. g and x must be at
// least as long as dst.
func MulAddNonzero(dst, g, x []float32) {
	g, x = g[:len(dst)], x[:len(dst)]
	if useAVX2 {
		mulAddNonzeroAVX2(dst, g, x)
		return
	}
	mulAddNonzeroGo(dst, g, x)
}

func mulAddNonzeroGo(dst, g, x []float32) {
	g, x = g[:len(dst)], x[:len(dst)]
	for i, v := range g {
		if v != 0 {
			dst[i] += v * x[i]
		}
	}
}

// Momentum is SGD's momentum step, element by element: v = mom·v + g,
// then w -= lr·v. v and g must be at least as long as w.
func Momentum(w, v, g []float32, mom, lr float32) {
	v, g = v[:len(w)], g[:len(w)]
	if useAVX2 {
		momentumAVX2(w, v, g, mom, lr)
		return
	}
	momentumGo(w, v, g, mom, lr)
}

func momentumGo(w, v, g []float32, mom, lr float32) {
	v, g = v[:len(w)], g[:len(w)]
	for i := range w {
		v[i] = mom*v[i] + g[i]
		w[i] -= lr * v[i]
	}
}
