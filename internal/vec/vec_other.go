//go:build !amd64

package vec

// Off amd64 there are no assembly kernels: the scalar twins run.
const haveAVX2 = false

func axpyAVX2(dst []float32, a float32, x []float32)  { axpyGo(dst, a, x) }
func dot8AVX2(acc, w, x, _ []float32)                 { dot8Go(acc, w, x) }
func mulAddAVX2(dst, w, x []float32)                  { mulAddGo(dst, w, x) }
func mulAddNonzeroAVX2(dst, g, x []float32)           { mulAddNonzeroGo(dst, g, x) }
func momentumAVX2(w, v, g []float32, mom, lr float32) { momentumGo(w, v, g, mom, lr) }
