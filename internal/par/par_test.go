package par

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestForRunsEveryIndexOnce(t *testing.T) {
	const w = 4
	for _, n := range []int{0, 1, w - 1, w, w + 1, 1000} {
		counts := make([]atomic.Int32, n)
		if err := For(n, w, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("n=%d: index %d ran %d times", n, i, c)
			}
		}
	}
}

func TestForReturnsFirstErrorByIndex(t *testing.T) {
	for _, w := range []int{1, 3, 16} {
		err := For(100, w, func(i int) error {
			if i%7 == 3 {
				// A later index may fail first in time; the lowest one wins.
				time.Sleep(time.Duration(100-i) * time.Microsecond)
				return fmt.Errorf("index %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "index 3" {
			t.Fatalf("w=%d: err = %v, want index 3", w, err)
		}
	}
}

func TestForWaitsForSlowCallsAfterAFailure(t *testing.T) {
	var slowDone atomic.Bool
	err := For(4, 4, func(i int) error {
		if i == 3 {
			time.Sleep(50 * time.Millisecond)
			slowDone.Store(true)
			return nil
		}
		return errors.New("early failure")
	})
	if err == nil {
		t.Fatal("no error returned")
	}
	if !slowDone.Load() {
		t.Fatal("For returned before a slow call did")
	}
}

func TestForClampsWorkers(t *testing.T) {
	for _, w := range []int{-3, 0, 1, 5, 64} {
		var running, peak atomic.Int32
		if err := For(5, w, func(int) error {
			r := running.Add(1)
			for p := peak.Load(); r > p && !peak.CompareAndSwap(p, r); p = peak.Load() {
			}
			time.Sleep(5 * time.Millisecond)
			running.Add(-1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if p, want := peak.Load(), int32(min(max(w, 1), 5)); p > want {
			t.Fatalf("w=%d: %d calls ran at once, want at most %d", w, p, want)
		}
	}
}

// TestForOneWorkerRunsOnTheCaller checks that w = 1 starts no goroutine:
// every call runs on the caller's goroutine, in index order.
func TestForOneWorkerRunsOnTheCaller(t *testing.T) {
	caller := goid()
	var order []int
	if err := For(10, 1, func(i int) error {
		if g := goid(); g != caller {
			return fmt.Errorf("call %d ran on goroutine %s, the caller is %s", i, g, caller)
		}
		order = append(order, i)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(order) != "[0 1 2 3 4 5 6 7 8 9]" {
		t.Fatalf("order %v, want 0..9", order)
	}
}

// goid returns the current goroutine's id, read off its stack header
// ("goroutine 7 [running]: ...").
func goid() string {
	var buf [64]byte
	f := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	return f[1]
}

func TestChunksCoverTheRange(t *testing.T) {
	for _, tc := range []struct{ n, w, chunks int }{
		{0, 4, 0}, {1, 4, 1}, {3, 4, 3}, {8, 4, 4}, {10, 4, 4}, {10, 3, 3}, {7, 1, 1}, {5, 0, 1},
	} {
		covered := make([]atomic.Int32, tc.n)
		var chunks atomic.Int32
		Chunks(tc.n, tc.w, func(lo, hi int) {
			chunks.Add(1)
			for i := lo; i < hi; i++ {
				covered[i].Add(1)
			}
		})
		if c := chunks.Load(); int(c) != tc.chunks {
			t.Errorf("n=%d w=%d: %d chunks, want %d", tc.n, tc.w, c, tc.chunks)
		}
		for i := range covered {
			if c := covered[i].Load(); c != 1 {
				t.Fatalf("n=%d w=%d: index %d covered %d times", tc.n, tc.w, i, c)
			}
		}
	}
}
