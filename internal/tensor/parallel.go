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
		s += <-parts // arrival order: non-deterministic association
	}
	return s
}
