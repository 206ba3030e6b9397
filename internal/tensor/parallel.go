package tensor

import (
	"cmp"
	"runtime"
	"slices"

	"repro/internal/par"
)

// largestFirst returns the indices of ts in a stable size-descending order,
// the order a pass over many tensors hands them to the worker pool:
// workers claim tensors one at a time, so the biggest — a classifier that
// comes last in state-dict order — starts at once instead of running alone
// at the end, and the small ones fill in around it.
func largestFirst(ts []*Tensor) []int {
	order := make([]int, len(ts))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(len(ts[b].data), len(ts[a].data)) })
	return order
}

// serialCloneBytes is the state size below which CloneAll copies on the
// caller's goroutine: a few small tensors copy in less time than handing
// them to other workers takes.
const serialCloneBytes = 1 << 20

// CloneAll returns Clone of every tensor of ts, out[i] the copy of ts[i].
// The copies run on the worker pool, largest tensor first, unless ts holds
// fewer than serialCloneBytes of data; either way each copy is allocated
// and written in one pass, and carries its source's stamp.
func CloneAll(ts []*Tensor) []*Tensor {
	out := make([]*Tensor, len(ts))
	size := 0
	for _, t := range ts {
		size += 4 * len(t.data)
	}
	w := runtime.GOMAXPROCS(0)
	if size < serialCloneBytes {
		w = 1
	}
	order := largestFirst(ts)
	_ = par.For(len(order), w, func(j int) error {
		out[order[j]] = ts[order[j]].Clone()
		return nil
	})
	return out
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
