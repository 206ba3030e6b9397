package models

import (
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Table 2 of the paper: trainable parameters per architecture and the
// trainable parameters of a partially updated model version (classifier
// only). These counts must match torchvision exactly.
var table2 = []struct {
	arch          string
	params        int
	partialParams int
}{
	{MobileNetV2Name, 3_504_872, 1_281_000},
	{GoogLeNetName, 6_624_904, 1_025_000},
	{ResNet18Name, 11_689_512, 513_000},
	{ResNet50Name, 25_557_032, 2_049_000},
	{ResNet152Name, 60_192_808, 2_049_000},
}

func TestTable2ParameterCounts(t *testing.T) {
	for _, tc := range table2 {
		m, err := Spec{Arch: tc.arch, NumClasses: 1000}.Build()
		if err != nil {
			t.Fatal(err)
		}
		if got := nn.NumParams(m); got != tc.params {
			t.Errorf("%s: %d params, want %d (Table 2)", tc.arch, got, tc.params)
		}
		FreezeForPartialUpdate(tc.arch, m)
		if got := nn.NumTrainableParams(m); got != tc.partialParams {
			t.Errorf("%s: %d trainable after partial freeze, want %d (Table 2)", tc.arch, got, tc.partialParams)
		}
	}
}

func TestSpecBuildUnknown(t *testing.T) {
	if _, err := (Spec{Arch: "alexnet"}).Build(); err == nil {
		t.Fatal("expected error for unknown architecture")
	}
}

func TestSpecRoundTrip(t *testing.T) {
	s := Spec{Arch: ResNet18Name, NumClasses: 10}
	b, err := s.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseSpec(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != s {
		t.Fatalf("round trip = %+v, want %+v", got, s)
	}
	if _, err := ParseSpec([]byte("not json")); err == nil {
		t.Fatal("expected error for bad spec")
	}
	if _, err := ParseSpec([]byte("{}")); err == nil {
		t.Fatal("expected error for empty arch")
	}
}

func TestNamesIncludeEvaluationSet(t *testing.T) {
	names := map[string]bool{}
	for _, n := range Names() {
		names[n] = true
	}
	for _, n := range EvaluationNames() {
		if !names[n] {
			t.Fatalf("registry missing %s", n)
		}
	}
}

func TestInitializationDeterministic(t *testing.T) {
	a, err := New(TinyCNNName, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(TinyCNNName, 10, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !nn.StateDictOf(a).Equal(nn.StateDictOf(b)) {
		t.Fatal("same seed must give identical models")
	}
	c, _ := New(TinyCNNName, 10, 43)
	if nn.StateDictOf(a).Equal(nn.StateDictOf(c)) {
		t.Fatal("different seeds must give different models")
	}
}

// All five architectures must run a forward pass at the reduced 32×32
// evaluation resolution (reduced input resolution does not change parameter
// counts, which is what Table 2 fixes).
func TestForwardShapesAt32(t *testing.T) {
	if testing.Short() {
		t.Skip("full-architecture forward passes are slow")
	}
	for _, arch := range EvaluationNames() {
		m, err := New(arch, 1000, 7)
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.Uniform(tensor.NewRNG(1), 0, 1, 1, 3, 32, 32)
		out := m.Forward(nn.Eval(), x)
		if out.NDim() != 2 || out.Dim(0) != 1 || out.Dim(1) != 1000 {
			t.Fatalf("%s: output shape %v, want [1 1000]", arch, out.Shape())
		}
	}
}

func TestTinyCNNTrainsEndToEnd(t *testing.T) {
	m, err := New(TinyCNNName, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx := nn.Train(tensor.NewRNG(5))
	x := tensor.Uniform(tensor.NewRNG(2), 0, 1, 8, 3, 16, 16)
	out := m.Forward(ctx, x)
	if out.Dim(1) != 4 {
		t.Fatalf("out shape %v", out.Shape())
	}
	nn.ZeroGrads(m)
	m.Backward(ctx, tensor.Full(1, out.Shape()...))
	// Gradients must be non-zero somewhere.
	var nonZero bool
	for _, p := range nn.NamedParams(m) {
		if tensor.MaxAbs(p.Param.Grad) > 0 {
			nonZero = true
		}
	}
	if !nonZero {
		t.Fatal("all gradients zero after backward")
	}
}

func TestClassifierPrefixes(t *testing.T) {
	cases := map[string]string{
		MobileNetV2Name: "classifier.1",
		GoogLeNetName:   "fc",
		ResNet18Name:    "fc",
		ResNet50Name:    "fc",
		ResNet152Name:   "fc",
	}
	for arch, want := range cases {
		if got := ClassifierPrefix(arch); got != want {
			t.Fatalf("%s prefix = %q, want %q", arch, got, want)
		}
	}
}

func TestClassifierPrefixMatchesRealPaths(t *testing.T) {
	for _, arch := range []string{MobileNetV2Name, ResNet18Name} {
		m, err := Spec{Arch: arch, NumClasses: 10}.Build()
		if err != nil {
			t.Fatal(err)
		}
		prefix := ClassifierPrefix(arch)
		found := false
		for _, p := range nn.NamedParams(m) {
			if nn.LayerOf(p.Path) == prefix {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: no parameter under classifier prefix %q", arch, prefix)
		}
	}
}

func TestLayerCountsReasonable(t *testing.T) {
	// Sanity check layer (leaf module) counts used by the Merkle tree: each
	// architecture has dozens to hundreds of layers.
	want := map[string]int{
		MobileNetV2Name: 100, // ~157 leaves
		ResNet18Name:    40,  // ~60 leaves
	}
	for arch, min := range want {
		m, err := Spec{Arch: arch, NumClasses: 1000}.Build()
		if err != nil {
			t.Fatal(err)
		}
		if got := len(nn.LayerPaths(m)); got < min {
			t.Fatalf("%s: only %d layers", arch, got)
		}
	}
}

// Recovery builds with Spec.Build and loads the saved state into it, so
// the uninitialized build must expose exactly the state an initialized
// model has: same keys, same order, same shapes — for every registered
// architecture. A key Build lacked, or a tensor it shaped differently,
// would be a parameter recovery leaves at its zero value.
func TestBuildHasTheStateOfNew(t *testing.T) {
	for _, arch := range Names() {
		spec := Spec{Arch: arch, NumClasses: 10}
		built, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		created, err := New(arch, spec.NumClasses, 3)
		if err != nil {
			t.Fatal(err)
		}
		got, want := nn.StateDictOf(built).Entries(), nn.StateDictOf(created).Entries()
		if len(got) != len(want) {
			t.Fatalf("%s: Build has %d state entries, New has %d", arch, len(got), len(want))
		}
		for i := range want {
			if got[i].Key != want[i].Key || !got[i].Tensor.SameShape(want[i].Tensor) {
				t.Errorf("%s: entry %d is %s %v, New has %s %v", arch, i,
					got[i].Key, got[i].Tensor.Shape(), want[i].Key, want[i].Tensor.Shape())
			}
		}
		for _, p := range nn.NamedParams(built) {
			if p.Param.Grad != nil {
				t.Fatalf("%s: %s has a gradient tensor before any backward pass", arch, p.Path)
			}
		}
	}
}
