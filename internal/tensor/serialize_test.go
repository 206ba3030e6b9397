package tensor

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestSerializeRoundTrip(t *testing.T) {
	r := NewRNG(99)
	a := Normal(r, 0, 1, 3, 5, 7)
	var buf bytes.Buffer
	n, err := a.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != a.SerializedSize() {
		t.Fatalf("wrote %d bytes, SerializedSize says %d", n, a.SerializedSize())
	}
	b, _, err := ReadFromBytes(buf.Bytes(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("round trip not bit-identical")
	}
}

func TestSerializeScalarAndEmpty(t *testing.T) {
	for _, tc := range []*Tensor{Scalar(3.25), Zeros(0), Zeros(2, 0, 3)} {
		var buf bytes.Buffer
		if _, err := tc.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		got, _, err := ReadFromBytes(buf.Bytes(), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !tc.Equal(got) {
			t.Fatalf("round trip failed for %v", tc)
		}
	}
}

func TestReadFromRejectsBadMagic(t *testing.T) {
	if _, _, err := ReadFromBytes([]byte("not a tensor header"), 0); err == nil {
		t.Fatal("expected error for bad magic")
	}
}

func TestReadFromRejectsTruncated(t *testing.T) {
	a := New([]float32{1, 2, 3, 4}, 4)
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{2, 9, len(raw) - 3} {
		if _, _, err := ReadFromBytes(raw[:cut], 0); err == nil {
			t.Fatalf("expected error for truncation at %d", cut)
		}
	}
}

func TestReadFromRejectsBadVersion(t *testing.T) {
	a := New([]float32{1}, 1)
	var buf bytes.Buffer
	if _, err := a.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[4] = 0xff // corrupt version field
	if _, _, err := ReadFromBytes(raw, 0); err == nil {
		t.Fatal("expected error for bad version")
	}
}

func TestHashDistinguishesDataAndShape(t *testing.T) {
	a := New([]float32{1, 2, 3, 4}, 4)
	b := New([]float32{1, 2, 3, 4}, 2, 2)
	c := New([]float32{1, 2, 3, 5}, 4)
	if a.Hash() == b.Hash() {
		t.Fatal("hash should depend on shape")
	}
	if a.Hash() == c.Hash() {
		t.Fatal("hash should depend on data")
	}
	if a.Hash() != a.Clone().Hash() {
		t.Fatal("equal tensors must hash equally")
	}
	if len(a.Hash()) != 64 {
		t.Fatalf("hash should be hex sha256, got %q", a.Hash())
	}
}

// Property: serialization round trip preserves equality and hash for
// arbitrary 1-D tensors.
func TestSerializeRoundTripProperty(t *testing.T) {
	f := func(vals []float32) bool {
		a := New(vals, len(vals))
		var buf bytes.Buffer
		if _, err := a.WriteTo(&buf); err != nil {
			return false
		}
		b, _, err := ReadFromBytes(buf.Bytes(), 0)
		if err != nil {
			return false
		}
		return a.Equal(b) && a.Hash() == b.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(5)
	for i := 0; i < 1000; i++ {
		if v := r.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		if v := r.Float32(); v < 0 || v >= 1 {
			t.Fatalf("Float32 out of range: %v", v)
		}
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %v", v)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(9)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
	// Same seed, same permutation.
	q := NewRNG(9).Perm(50)
	for i := range p {
		if p[i] != q[i] {
			t.Fatal("Perm not deterministic for same seed")
		}
	}
}

func TestRNGNormalStats(t *testing.T) {
	r := NewRNG(17)
	n := 20000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if mean < -0.05 || mean > 0.05 {
		t.Fatalf("normal mean too far from 0: %v", mean)
	}
	if variance < 0.9 || variance > 1.1 {
		t.Fatalf("normal variance too far from 1: %v", variance)
	}
}

func TestForkIndependence(t *testing.T) {
	r := NewRNG(1)
	f1 := r.Fork()
	f2 := r.Fork()
	if f1.Uint64() == f2.Uint64() {
		t.Fatal("forked RNGs should differ")
	}
}

func TestUniformNormalConstructors(t *testing.T) {
	r := NewRNG(2)
	u := Uniform(r, -2, 2, 1000)
	for _, v := range u.Data() {
		if v < -2 || v >= 2 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
	n := Normal(NewRNG(2), 5, 0.0, 100)
	for _, v := range n.Data() {
		if v != 5 {
			t.Fatalf("Normal with std=0 should be constant mean, got %v", v)
		}
	}
	// Determinism: same seed, same tensor.
	a := Uniform(NewRNG(10), 0, 1, 64)
	b := Uniform(NewRNG(10), 0, 1, 64)
	if !a.Equal(b) {
		t.Fatal("Uniform not deterministic for same seed")
	}
}
