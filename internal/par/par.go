// Package par holds the one bounded worker pool the byte paths share:
// digesting and decoding tensors, the kernels' parallel mode, a save's
// concurrent wave and the catalog's scan. A CPU-bound caller sizes it with
// runtime.GOMAXPROCS(0) when the work starts; a caller that waits on the
// network passes its own bound.
package par

import (
	"sync"
	"sync/atomic"
)

// For runs fn(i) for every i in [0, n) on up to w workers, w clamped to
// [1, n]. Workers claim indices one at a time off a shared counter, so
// uneven calls balance themselves, and the caller is one of them: w = 1
// runs every call in index order on the caller's goroutine and starts
// none. Every index runs, whether or not another failed. For returns only
// after every call has returned, with the error of the lowest failed index,
// or nil; nothing it started is still running when the caller reads the
// results or undoes the work.
func For(n, w int, fn func(i int) error) error {
	w = min(max(w, 1), n)
	var (
		next  atomic.Int64
		mu    sync.Mutex
		errAt = n
		first error
	)
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			if err := fn(i); err != nil {
				mu.Lock()
				if i < errAt {
					errAt, first = i, err
				}
				mu.Unlock()
			}
		}
	}
	var wg sync.WaitGroup
	for range w - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return first
}

// Chunks splits [0, n) into up to w contiguous chunks of equal length (the
// last may be shorter) and runs fn on each through For.
func Chunks(n, w int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	w = min(max(w, 1), n)
	size := (n + w - 1) / w
	_ = For((n+size-1)/size, w, func(k int) error {
		fn(k*size, min((k+1)*size, n))
		return nil
	})
}
