package vec

// haveAVX2 reports whether the CPU runs AVX2 and the OS saves YMM state.
var haveAVX2 = detectAVX2()

func detectAVX2() bool {
	if max, _, _, _ := cpuid(0, 0); max < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 { // XMM and YMM state enabled
		return false
	}
	const avx2 = 1 << 5
	_, b, _, _ := cpuid(7, 0)
	return b&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// The kernels, in vec_amd64.s. Each takes slices its exported wrapper has
// already cut to matching lengths.

//go:noescape
func axpyAVX2(dst []float32, a float32, x []float32)

//go:noescape
func dot8AVX2(acc, w, x, scratch []float32)

//go:noescape
func mulAddAVX2(dst, w, x []float32)

//go:noescape
func mulAddNonzeroAVX2(dst, g, x []float32)

//go:noescape
func momentumAVX2(w, v, g []float32, mom, lr float32)
