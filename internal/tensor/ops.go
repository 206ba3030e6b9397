package tensor

import (
	"fmt"
	"math"
)

// Mode selects how reductions are executed.
//
// Deterministic mode performs every accumulation serially in index order,
// which makes results bit-identical across runs and machines at the cost of
// throughput. Parallel mode splits work across goroutines and combines
// partial sums in arrival order, so results can differ slightly between runs
// due to floating-point non-associativity — the behaviour the paper's
// Figure 2 illustrates for GPU kernels.
type Mode int

const (
	// Deterministic executes reductions serially in a fixed order.
	Deterministic Mode = iota
	// Parallel executes reductions concurrently; the combination order of
	// partial results is not fixed, so results may vary between runs.
	Parallel
)

func (m Mode) String() string {
	switch m {
	case Deterministic:
		return "deterministic"
	case Parallel:
		return "parallel"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

func checkSameShape(op string, a, b *Tensor) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.shape, b.shape))
	}
}

// Add returns a new tensor a + b (elementwise).
func Add(a, b *Tensor) *Tensor {
	checkSameShape("Add", a, b)
	out := Zeros(a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] + b.data[i]
	}
	return out
}

// Sub returns a new tensor a - b (elementwise).
func Sub(a, b *Tensor) *Tensor {
	checkSameShape("Sub", a, b)
	out := Zeros(a.shape...)
	for i := range a.data {
		out.data[i] = a.data[i] - b.data[i]
	}
	return out
}

// AddInPlace adds b into a elementwise.
func AddInPlace(a, b *Tensor) {
	checkSameShape("AddInPlace", a, b)
	a.touch()
	for i := range a.data {
		a.data[i] += b.data[i]
	}
}

// Axpy performs a += alpha*b elementwise in place.
func Axpy(alpha float32, a, b *Tensor) {
	checkSameShape("Axpy", a, b)
	a.touch()
	for i := range a.data {
		a.data[i] += alpha * b.data[i]
	}
}

// Sum reduces the whole tensor to a single value, accumulating serially
// in index order.
func Sum(a *Tensor) float32 {
	var s float32
	for _, v := range a.data {
		s += v
	}
	return s
}

// Dot computes the inner product of two equal-length tensors using the given
// mode. In Parallel mode the accumulation order of partial products is not
// fixed, so the result may differ from the Deterministic result in the last
// bits — this mirrors the serial-vs-parallel dot product of Figure 2.
func Dot(a, b *Tensor, mode Mode) float32 {
	if a.Len() != b.Len() {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", a.Len(), b.Len()))
	}
	if mode == Deterministic {
		return dotSerial(a.data, b.data)
	}
	return dotParallel(a.data, b.data)
}

func dotSerial(x, y []float32) float32 {
	var s float32
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

// DotPairwise computes the inner product with pairwise (tree) reduction.
// It is deterministic but associates differently from dotSerial, so it is a
// second fixed-order implementation that can produce a different float
// result — the "different implementations of the same operator" case of
// Section 2.3.
func DotPairwise(a, b *Tensor) float32 {
	if a.Len() != b.Len() {
		panic(fmt.Sprintf("tensor: DotPairwise length mismatch %d vs %d", a.Len(), b.Len()))
	}
	return dotPairwise(a.data, b.data)
}

func dotPairwise(x, y []float32) float32 {
	n := len(x)
	if n == 0 {
		return 0
	}
	if n <= 16 {
		return dotSerial(x, y)
	}
	h := n / 2
	return dotPairwise(x[:h], y[:h]) + dotPairwise(x[h:], y[h:])
}

// MaxAbs returns the maximum absolute value in a; 0 for empty tensors.
func MaxAbs(a *Tensor) float32 {
	var m float32
	for _, v := range a.data {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// Transpose2D returns the transpose of a 2-D tensor.
func Transpose2D(a *Tensor) *Tensor {
	if a.NDim() != 2 {
		panic(fmt.Sprintf("tensor: Transpose2D needs a 2-D tensor, got %v", a.shape))
	}
	m, n := a.shape[0], a.shape[1]
	out := Zeros(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = a.data[i*n+j]
		}
	}
	return out
}

// L2Norm returns the Euclidean norm of all elements, computed in float64 to
// limit rounding error, then rounded to float32.
func L2Norm(a *Tensor) float32 {
	var s float64
	for _, v := range a.data {
		s += float64(v) * float64(v)
	}
	return float32(math.Sqrt(s))
}
