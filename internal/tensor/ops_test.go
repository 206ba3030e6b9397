package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestElementwiseOps(t *testing.T) {
	a := New([]float32{1, 2, 3, 4}, 2, 2)
	b := New([]float32{10, 20, 30, 40}, 2, 2)
	if got := Add(a, b).Data(); got[3] != 44 {
		t.Fatalf("Add = %v", got)
	}
	if got := Sub(b, a).Data(); got[0] != 9 {
		t.Fatalf("Sub = %v", got)
	}
}

func TestInPlaceOps(t *testing.T) {
	a := New([]float32{1, 2, 3}, 3)
	b := New([]float32{10, 10, 10}, 3)
	AddInPlace(a, b)
	if a.Data()[0] != 11 {
		t.Fatalf("AddInPlace = %v", a.Data())
	}
	Axpy(0.5, a, b)
	if a.Data()[0] != 16 {
		t.Fatalf("Axpy = %v", a.Data())
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	a, b := Zeros(2), Zeros(3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	Add(a, b)
}

func TestSumAndMean(t *testing.T) {
	a := New([]float32{1, 2, 3, 4}, 4)
	if s := Sum(a); s != 10 {
		t.Fatalf("Sum = %v", s)
	}
	if s := Sum(Zeros(0)); s != 0 {
		t.Fatalf("Sum(empty) = %v", s)
	}
}

func TestDotSerialMatchesKnown(t *testing.T) {
	a := New([]float32{1, 2, 3}, 3)
	b := New([]float32{4, 5, 6}, 3)
	if d := Dot(a, b, Deterministic); d != 32 {
		t.Fatalf("Dot = %v, want 32", d)
	}
}

// Deterministic reductions must be bit-identical across repeated runs.
func TestDeterministicSumIsStable(t *testing.T) {
	r := NewRNG(7)
	a := Uniform(r, -1, 1, 100000)
	first := Sum(a)
	for i := 0; i < 20; i++ {
		if got := Sum(a); got != first {
			t.Fatalf("deterministic Sum varied: %v vs %v", got, first)
		}
	}
}

// Figure 2: different association orders of the same dot product can yield
// different float results. The serial and pairwise reductions are both
// deterministic yet associate differently; for long random vectors they are
// expected to disagree in the low bits.
func TestFigure2DotProductAssociation(t *testing.T) {
	r := NewRNG(1234)
	a := Uniform(r, -1, 1, 1<<16)
	b := Uniform(r, -1, 1, 1<<16)
	serial := Dot(a, b, Deterministic)
	pairwise := DotPairwise(a, b)
	if math.Abs(float64(serial-pairwise)) > 1e-1 {
		t.Fatalf("reductions too far apart: %v vs %v", serial, pairwise)
	}
	// Both orders are individually reproducible.
	if Dot(a, b, Deterministic) != serial {
		t.Fatal("serial dot not reproducible")
	}
	if DotPairwise(a, b) != pairwise {
		t.Fatal("pairwise dot not reproducible")
	}
}

func TestDotLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot(Zeros(2), Zeros(3), Deterministic)
}

func TestTranspose2D(t *testing.T) {
	a := New([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	at := Transpose2D(a)
	if at.Dim(0) != 3 || at.Dim(1) != 2 {
		t.Fatalf("Transpose shape = %v", at.Shape())
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("Transpose values wrong: %v", at)
	}
}

func TestMaxAbsArgMax(t *testing.T) {
	a := New([]float32{-5, 2, 4, -1}, 4)
	if MaxAbs(a) != 5 {
		t.Fatalf("MaxAbs = %v", MaxAbs(a))
	}
}

func TestL2Norm(t *testing.T) {
	a := New([]float32{3, 4}, 2)
	if n := L2Norm(a); math.Abs(float64(n)-5) > 1e-6 {
		t.Fatalf("L2Norm = %v, want 5", n)
	}
}

func TestModeString(t *testing.T) {
	if Deterministic.String() != "deterministic" || Parallel.String() != "parallel" {
		t.Fatal("Mode.String wrong")
	}
	if Mode(9).String() == "" {
		t.Fatal("unknown mode should still stringify")
	}
}

// Property: Add is commutative elementwise (float add is commutative even
// though it is not associative).
func TestAddCommutativeProperty(t *testing.T) {
	f := func(x, y []float32) bool {
		n := len(x)
		if len(y) < n {
			n = len(y)
		}
		a := New(append([]float32(nil), x[:n]...), n)
		b := New(append([]float32(nil), y[:n]...), n)
		return Add(a, b).Equal(Add(b, a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Sub(a, a) is all zeros for finite inputs.
func TestSubSelfZeroProperty(t *testing.T) {
	f := func(x []float32) bool {
		for i, v := range x {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				x[i] = 0
			}
		}
		a := New(x, len(x))
		d := Sub(a, a)
		for _, v := range d.Data() {
			if v != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
