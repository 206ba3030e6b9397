package nn

import (
	"testing"

	"repro/internal/tensor"
)

// Edge-case and panic-path coverage for the layer implementations.

func expectPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestBackwardBeforeForwardPanics(t *testing.T) {
	ctx := Eval()
	g := tensor.Zeros(1, 1, 2, 2)
	expectPanic(t, "Conv2d", func() { NewConv2d(1, 1, 3, 1, 1, 1, false).Backward(ctx, g) })
	expectPanic(t, "Linear", func() { NewLinear(2, 2).Backward(ctx, tensor.Zeros(1, 2)) })
	expectPanic(t, "BatchNorm2d", func() { NewBatchNorm2d(1).Backward(ctx, g) })
	expectPanic(t, "ReLU", func() { NewReLU().Backward(ctx, g) })
	expectPanic(t, "MaxPool2d", func() { NewMaxPool2d(2, 2, 0, false).Backward(ctx, g) })
	expectPanic(t, "GlobalAvgPool2d", func() { NewGlobalAvgPool2d().Backward(ctx, g) })
	expectPanic(t, "Flatten", func() { NewFlatten().Backward(ctx, tensor.Zeros(1, 4)) })
	expectPanic(t, "Concat", func() { NewConcat(NewReLU()).Backward(ctx, g) })
}

func TestBatchNormEvalThenBackwardPanics(t *testing.T) {
	bn := NewBatchNorm2d(1)
	x := tensor.Zeros(1, 1, 2, 2)
	bn.Forward(Eval(), x) // eval mode caches nothing
	expectPanic(t, "BatchNorm2d eval backward", func() {
		bn.Backward(Eval(), tensor.Zeros(1, 1, 2, 2))
	})
}

func TestWrongInputShapePanics(t *testing.T) {
	ctx := Eval()
	expectPanic(t, "Conv2d channels", func() {
		NewConv2d(3, 4, 3, 1, 1, 1, false).Forward(ctx, tensor.Zeros(1, 2, 8, 8))
	})
	expectPanic(t, "Conv2d rank", func() {
		NewConv2d(3, 4, 3, 1, 1, 1, false).Forward(ctx, tensor.Zeros(3, 8, 8))
	})
	expectPanic(t, "Linear features", func() {
		NewLinear(4, 2).Forward(ctx, tensor.Zeros(1, 5))
	})
	expectPanic(t, "BatchNorm channels", func() {
		NewBatchNorm2d(2).Forward(ctx, tensor.Zeros(1, 3, 2, 2))
	})
	expectPanic(t, "Conv output too small", func() {
		NewConv2d(1, 1, 7, 1, 0, 1, false).Forward(ctx, tensor.Zeros(1, 1, 3, 3))
	})
}

func TestResidualShapeMismatchPanics(t *testing.T) {
	// Body changes channel count but shortcut is identity: shapes diverge.
	body := NewConv2d(2, 4, 3, 1, 1, 1, false)
	res := NewResidual(body, nil, nil)
	expectPanic(t, "Residual", func() {
		res.Forward(Eval(), tensor.Zeros(1, 2, 4, 4))
	})
}

func TestConcatNoBranchesPanics(t *testing.T) {
	expectPanic(t, "Concat empty", func() {
		NewConcat().Forward(Eval(), tensor.Zeros(1, 1, 2, 2))
	})
}

func TestConcatBranchShapeMismatchPanics(t *testing.T) {
	// Branch 2 halves the spatial size; concat must reject it.
	b1 := NewConv2d(1, 1, 1, 1, 0, 1, false)
	b2 := NewConv2d(1, 1, 1, 2, 0, 1, false)
	cat := NewConcat(b1, b2)
	expectPanic(t, "Concat shapes", func() {
		cat.Forward(Eval(), tensor.Zeros(1, 1, 4, 4))
	})
}

func TestSequentialAppendAndNames(t *testing.T) {
	s := NewSequential(NewReLU())
	s.Append(NewFlatten())
	cs := s.Children()
	if len(cs) != 2 || cs[0].Name != "0" || cs[1].Name != "1" {
		t.Fatalf("children = %+v", cs)
	}
	// Empty sequential is the identity.
	empty := NewSequential()
	x := tensor.New([]float32{1, 2}, 1, 2)
	if !empty.Forward(Eval(), x).Equal(x) {
		t.Fatal("empty Sequential should be identity")
	}
	if !empty.Backward(Eval(), x).Equal(x) {
		t.Fatal("empty Sequential backward should be identity")
	}
}

func TestBatchNormRunningStatsFormula(t *testing.T) {
	bn := NewBatchNorm2d(1)
	ctx := &Context{Training: true, Mode: tensor.Deterministic}
	// Batch: values {0, 2} per channel → mean 1, biased var 1, unbiased 2
	// over cnt=2.
	x := tensor.New([]float32{0, 2}, 2, 1, 1, 1)
	bn.Forward(ctx, x)
	// running_mean = 0.9*0 + 0.1*1 = 0.1
	if got := bn.RunningMean.Value.Data()[0]; got < 0.0999 || got > 0.1001 {
		t.Fatalf("running mean = %v, want 0.1", got)
	}
	// running_var = 0.9*1 + 0.1*2 = 1.1 (unbiased variance, PyTorch style)
	if got := bn.RunningVar.Value.Data()[0]; got < 1.0999 || got > 1.1001 {
		t.Fatalf("running var = %v, want 1.1", got)
	}
}

func TestContextConstructors(t *testing.T) {
	e := Eval()
	if e.Training || e.Mode != tensor.Deterministic || e.RNG != nil {
		t.Fatalf("Eval() = %+v", e)
	}
	rng := tensor.NewRNG(1)
	tr := Train(rng)
	if !tr.Training || tr.RNG != rng {
		t.Fatalf("Train() = %+v", tr)
	}
}

func TestCheckShapes(t *testing.T) {
	CheckShapes("ok", []int{2, 3}, -1, 3) // wildcard then exact: fine
	expectPanic(t, "rank", func() { CheckShapes("x", []int{2}, -1, -1) })
	expectPanic(t, "dim", func() { CheckShapes("x", []int{2, 4}, -1, 3) })
}

func TestDropoutZeroProbability(t *testing.T) {
	d := NewDropout(0)
	ctx := Train(tensor.NewRNG(1))
	x := tensor.Full(1, 1, 10)
	if !d.Forward(ctx, x).Equal(x) {
		t.Fatal("p=0 dropout must be identity")
	}
	// Backward with no mask passes gradient through unchanged.
	g := tensor.Full(2, 1, 10)
	if !d.Backward(ctx, g).Equal(g) {
		t.Fatal("p=0 dropout backward must be identity")
	}
}

func TestNumParamsCounts(t *testing.T) {
	l := NewLinear(3, 2) // 3*2 + 2 = 8
	if NumParams(l) != 8 {
		t.Fatalf("NumParams = %d", NumParams(l))
	}
	l.Bias.Trainable = false
	if NumTrainableParams(l) != 6 {
		t.Fatalf("NumTrainableParams = %d", NumTrainableParams(l))
	}
	ZeroGrads(l)
}

// Cross-validation of the two execution modes across kernel shapes,
// strides, and groupings. They run one kernel and differ only in schedule:
// the output and the input gradient have no reduction across samples and
// match bit for bit; the weight gradient folds per-worker partials in
// arrival order and agrees up to float rounding.
func TestConvAlgorithmsAgree(t *testing.T) {
	cases := []struct {
		name                              string
		inC, outC, k, stride, pad, groups int
		bias                              bool
	}{
		{"3x3", 3, 5, 3, 1, 1, 1, true},
		{"1x1", 4, 6, 1, 1, 0, 1, false},
		{"7x7s2", 3, 4, 7, 2, 3, 1, false},
		{"depthwise", 6, 6, 3, 1, 1, 6, false},
		{"grouped", 4, 8, 3, 2, 1, 2, true},
	}
	rng := tensor.NewRNG(77)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewConv2d(tc.inC, tc.outC, tc.k, tc.stride, tc.pad, tc.groups, tc.bias)
			InitConv(rng, c)
			if c.Bias != nil {
				UniformFan(rng, c.Bias.Value, tc.inC)
			}
			x := tensor.Normal(rng, 0, 1, 2, tc.inC, 9, 9)

			dctx := &Context{Training: true, Mode: tensor.Deterministic}
			pctx := &Context{Training: true, Mode: tensor.Parallel}

			detOut := c.Forward(dctx, x)
			g := tensor.Normal(tensor.NewRNG(5), 0, 1, detOut.Shape()...)
			ZeroGrads(c)
			detGX := c.Backward(dctx, g)
			detGW := c.Weight.Grad.Clone()

			parOut := c.Forward(pctx, x)
			ZeroGrads(c)
			parGX := c.Backward(pctx, g)
			parGW := c.Weight.Grad.Clone()

			if !detOut.Equal(parOut) {
				t.Fatal("forward outputs differ")
			}
			if !detGX.Equal(parGX) {
				t.Fatal("input gradients differ")
			}
			if !detGW.AllClose(parGW, 1e-3) {
				t.Fatal("weight gradients disagree")
			}
		})
	}
}

func TestMaxPoolFullyPaddedWindowGradient(t *testing.T) {
	// With padding, a window can still always contain at least one valid
	// element here; verify backward scatters only to valid positions.
	p := NewMaxPool2d(3, 2, 1, false)
	x := tensor.Uniform(tensor.NewRNG(3), 0, 1, 1, 1, 4, 4)
	out := p.Forward(Eval(), x)
	g := p.Backward(Eval(), tensor.Full(1, out.Shape()...))
	var sum float32
	for _, v := range g.Data() {
		sum += v
	}
	if sum != float32(out.Len()) {
		t.Fatalf("gradient mass = %v, want %d", sum, out.Len())
	}
}
