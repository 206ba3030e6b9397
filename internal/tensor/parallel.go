package tensor

import (
	"runtime"

	"repro/internal/par"
)

// parallelFor splits [0, n) into one contiguous chunk per P and runs body
// on the chunks concurrently. body must not assume any ordering between
// chunks.
func parallelFor(n int, body func(lo, hi int)) {
	par.Chunks(n, runtime.GOMAXPROCS(0), body)
}

// sumParallel sums x with goroutine-parallel partial sums that are combined
// in completion order. Because float32 addition is not associative, the
// result can differ between runs — this is the intentionally non-reproducible
// reduction used to model non-deterministic kernels.
func sumParallel(x []float32) float32 {
	n := len(x)
	w := min(runtime.GOMAXPROCS(0), n)
	if w <= 1 {
		return sumSerial(x)
	}
	chunk := (n + w - 1) / w
	parts := make(chan float32, w)
	count := 0
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		count++
		go func(seg []float32) {
			parts <- sumSerial(seg)
		}(x[lo:hi])
	}
	var s float32
	for i := 0; i < count; i++ {
		s += <-parts // arrival order: non-deterministic association
	}
	return s
}

// dotParallel computes the inner product with goroutine-parallel partial
// products combined in completion order (non-deterministic association).
func dotParallel(x, y []float32) float32 {
	n := len(x)
	w := min(runtime.GOMAXPROCS(0), n)
	if w <= 1 {
		return dotSerial(x, y)
	}
	chunk := (n + w - 1) / w
	parts := make(chan float32, w)
	count := 0
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		count++
		go func(xs, ys []float32) {
			parts <- dotSerial(xs, ys)
		}(x[lo:hi], y[lo:hi])
	}
	var s float32
	for i := 0; i < count; i++ {
		s += <-parts
	}
	return s
}
