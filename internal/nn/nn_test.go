package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// numGrad estimates d(sum(f(x)))/dx by central differences.
func numGrad(f func(*tensor.Tensor) *tensor.Tensor, x *tensor.Tensor, eps float32) *tensor.Tensor {
	g := tensor.Zeros(x.Shape()...)
	xd, gd := x.Data(), g.Data()
	for i := range xd {
		orig := xd[i]
		xd[i] = orig + eps
		up := float64(tensor.Sum(f(x)))
		xd[i] = orig - eps
		down := float64(tensor.Sum(f(x)))
		xd[i] = orig
		gd[i] = float32((up - down) / (2 * float64(eps)))
	}
	return g
}

// gradCheck validates a module's input gradient against finite differences.
// The loss is sum(output), so the output gradient is all ones.
func gradCheck(t *testing.T, name string, m Module, x *tensor.Tensor, tol float32) {
	t.Helper()
	ctx := &Context{Training: true, Mode: tensor.Deterministic}
	out := m.Forward(ctx, x)
	ones := tensor.Full(1, out.Shape()...)
	analytic := m.Backward(ctx, ones)
	numeric := numGrad(func(in *tensor.Tensor) *tensor.Tensor {
		return m.Forward(ctx, in)
	}, x.Clone(), 1e-2)
	if !analytic.AllClose(numeric, tol) {
		maxDiff := float32(0)
		for i := range analytic.Data() {
			d := analytic.Data()[i] - numeric.Data()[i]
			if d < 0 {
				d = -d
			}
			if d > maxDiff {
				maxDiff = d
			}
		}
		t.Fatalf("%s: input gradient mismatch (max abs diff %v)", name, maxDiff)
	}
}

// paramGradCheck validates a parameter gradient against finite differences.
func paramGradCheck(t *testing.T, name string, m Module, p *Param, x *tensor.Tensor, tol float32) {
	t.Helper()
	ctx := &Context{Training: true, Mode: tensor.Deterministic}
	ZeroGrads(m)
	out := m.Forward(ctx, x)
	m.Backward(ctx, tensor.Full(1, out.Shape()...))
	analytic := p.Grad.Clone()

	numeric := tensor.Zeros(p.Value.Shape()...)
	pd, nd := p.Value.Data(), numeric.Data()
	eps := float32(1e-2)
	for i := range pd {
		orig := pd[i]
		pd[i] = orig + eps
		up := float64(tensor.Sum(m.Forward(ctx, x)))
		pd[i] = orig - eps
		down := float64(tensor.Sum(m.Forward(ctx, x)))
		pd[i] = orig
		nd[i] = float32((up - down) / (2 * float64(eps)))
	}
	if !analytic.AllClose(numeric, tol) {
		t.Fatalf("%s: parameter %s gradient mismatch", name, p.Name)
	}
}

func TestConv2dKnownValues(t *testing.T) {
	// 1 sample, 1 channel, 3x3 input; 1 output channel, 2x2 kernel, stride 1.
	c := NewConv2d(1, 1, 2, 1, 0, 1, true)
	copy(c.Weight.Value.Data(), []float32{1, 0, 0, 1}) // identity-ish kernel
	c.Bias.Value.Data()[0] = 0.5
	x := tensor.New([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 1, 3, 3)
	out := c.Forward(Eval(), x)
	want := []float32{1 + 5 + 0.5, 2 + 6 + 0.5, 4 + 8 + 0.5, 5 + 9 + 0.5}
	for i, v := range out.Data() {
		if v != want[i] {
			t.Fatalf("conv out = %v, want %v", out.Data(), want)
		}
	}
}

func TestConv2dPaddingAndStride(t *testing.T) {
	c := NewConv2d(1, 1, 3, 2, 1, 1, false)
	c.Weight.Value.Fill(1)
	x := tensor.Full(1, 1, 1, 4, 4)
	out := c.Forward(Eval(), x)
	if out.Dim(2) != 2 || out.Dim(3) != 2 {
		t.Fatalf("conv out shape = %v, want 2x2", out.Shape())
	}
	// Top-left window covers 2x2 valid inputs (padded corners).
	if out.At(0, 0, 0, 0) != 4 {
		t.Fatalf("padded corner = %v, want 4", out.At(0, 0, 0, 0))
	}
}

func TestConv2dGradients(t *testing.T) {
	rng := tensor.NewRNG(1)
	c := NewConv2d(2, 3, 3, 1, 1, 1, true)
	InitConv(rng, c)
	tensor.Normal(rng, 0, 0.1, 1).Data() // consume a draw; keep init varied
	x := tensor.Normal(rng, 0, 1, 2, 2, 5, 5)
	gradCheck(t, "Conv2d", c, x, 2e-2)
	paramGradCheck(t, "Conv2d", c, c.Weight, x, 2e-2)
	paramGradCheck(t, "Conv2d", c, c.Bias, x, 2e-2)
}

func TestConv2dGroupedGradients(t *testing.T) {
	rng := tensor.NewRNG(2)
	// Depthwise: groups == channels, as in MobileNetV2.
	c := NewConv2d(4, 4, 3, 1, 1, 4, false)
	InitConv(rng, c)
	x := tensor.Normal(rng, 0, 1, 2, 4, 4, 4)
	gradCheck(t, "Conv2d(depthwise)", c, x, 2e-2)
	paramGradCheck(t, "Conv2d(depthwise)", c, c.Weight, x, 2e-2)
}

func TestConv2dStridedGradients(t *testing.T) {
	rng := tensor.NewRNG(3)
	c := NewConv2d(2, 2, 3, 2, 1, 1, false)
	InitConv(rng, c)
	x := tensor.Normal(rng, 0, 1, 1, 2, 6, 6)
	gradCheck(t, "Conv2d(stride2)", c, x, 2e-2)
}

func TestConv2dParallelMatchesDeterministicForward(t *testing.T) {
	rng := tensor.NewRNG(4)
	c := NewConv2d(3, 8, 3, 1, 1, 1, false)
	InitConv(rng, c)
	x := tensor.Normal(rng, 0, 1, 6, 3, 8, 8)
	det := c.Forward(&Context{Mode: tensor.Deterministic}, x)
	par := c.Forward(&Context{Mode: tensor.Parallel}, x)
	// The two modes run one kernel and differ only in schedule; forward has
	// no reduction across samples, so the schedule cannot show in its bits.
	if !det.Equal(par) {
		t.Fatal("parallel conv forward differs from deterministic")
	}
	// Each mode is individually reproducible for a fixed worker layout.
	if !det.Equal(c.Forward(&Context{Mode: tensor.Deterministic}, x)) {
		t.Fatal("deterministic forward not bit-stable")
	}
}

func TestConv2dBackwardDeterministicIsStable(t *testing.T) {
	rng := tensor.NewRNG(5)
	c := NewConv2d(3, 4, 3, 1, 1, 1, false)
	InitConv(rng, c)
	x := tensor.Normal(rng, 0, 1, 8, 3, 6, 6)
	ctx := &Context{Training: true, Mode: tensor.Deterministic}
	out := c.Forward(ctx, x)
	g := tensor.Full(1, out.Shape()...)

	ZeroGrads(c)
	c.Backward(ctx, g)
	first := c.Weight.Grad.Clone()
	for i := 0; i < 3; i++ {
		ZeroGrads(c)
		c.Forward(ctx, x)
		c.Backward(ctx, g)
		if !c.Weight.Grad.Equal(first) {
			t.Fatal("deterministic backward not bit-stable")
		}
	}
	// Parallel backward is approximately equal.
	ZeroGrads(c)
	pctx := &Context{Training: true, Mode: tensor.Parallel}
	c.Forward(pctx, x)
	c.Backward(pctx, g)
	if !c.Weight.Grad.AllClose(first, 1e-3) {
		t.Fatal("parallel backward too far from deterministic")
	}
}

func TestConv2dRejectsBadGroups(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewConv2d(3, 4, 3, 1, 1, 2, false)
}

func TestLinearKnownValues(t *testing.T) {
	l := NewLinear(2, 2)
	copy(l.Weight.Value.Data(), []float32{1, 2, 3, 4})
	copy(l.Bias.Value.Data(), []float32{10, 20})
	x := tensor.New([]float32{1, 1}, 1, 2)
	out := l.Forward(Eval(), x)
	if out.At(0, 0) != 13 || out.At(0, 1) != 27 {
		t.Fatalf("linear out = %v", out.Data())
	}
}

func TestLinearGradients(t *testing.T) {
	rng := tensor.NewRNG(6)
	l := NewLinear(5, 3)
	InitLinear(rng, l)
	x := tensor.Normal(rng, 0, 1, 4, 5)
	gradCheck(t, "Linear", l, x, 1e-2)
	paramGradCheck(t, "Linear", l, l.Weight, x, 1e-2)
	paramGradCheck(t, "Linear", l, l.Bias, x, 1e-2)
}

func TestBatchNormForwardNormalizes(t *testing.T) {
	bn := NewBatchNorm2d(2)
	rng := tensor.NewRNG(7)
	x := tensor.Normal(rng, 3, 2, 4, 2, 5, 5)
	ctx := &Context{Training: true, Mode: tensor.Deterministic}
	out := bn.Forward(ctx, x)
	// Per-channel mean ~0, var ~1 after normalization with gamma=1, beta=0.
	n, c, h, w := 4, 2, 5, 5
	for ch := 0; ch < c; ch++ {
		var sum, sq float64
		for i := 0; i < n; i++ {
			for j := 0; j < h*w; j++ {
				v := float64(out.Data()[((i*c)+ch)*h*w+j])
				sum += v
				sq += v * v
			}
		}
		cnt := float64(n * h * w)
		mean := sum / cnt
		variance := sq/cnt - mean*mean
		if math.Abs(mean) > 1e-4 || math.Abs(variance-1) > 1e-2 {
			t.Fatalf("channel %d: mean=%v var=%v", ch, mean, variance)
		}
	}
	// Running stats moved toward batch stats.
	if bn.RunningMean.Value.Data()[0] == 0 {
		t.Fatal("running mean not updated")
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	bn := NewBatchNorm2d(1)
	bn.RunningMean.Value.Data()[0] = 2
	bn.RunningVar.Value.Data()[0] = 4
	x := tensor.Full(4, 1, 1, 2, 2)
	out := bn.Forward(Eval(), x)
	// (4-2)/sqrt(4+eps) ≈ 1.
	if math.Abs(float64(out.Data()[0])-1) > 1e-3 {
		t.Fatalf("eval BN out = %v", out.Data()[0])
	}
}

func TestBatchNormGradients(t *testing.T) {
	rng := tensor.NewRNG(8)
	bn := NewBatchNorm2d(3)
	// Non-trivial gamma/beta.
	copy(bn.Weight.Value.Data(), []float32{1.5, 0.5, 2})
	copy(bn.Bias.Value.Data(), []float32{0.1, -0.2, 0.3})
	x := tensor.Normal(rng, 0, 1, 3, 3, 4, 4)
	gradCheck(t, "BatchNorm2d", bn, x, 3e-2)
	paramGradCheck(t, "BatchNorm2d", bn, bn.Weight, x, 3e-2)
	paramGradCheck(t, "BatchNorm2d", bn, bn.Bias, x, 3e-2)
}

func TestReLUForwardBackward(t *testing.T) {
	r := NewReLU()
	x := tensor.New([]float32{-1, 0, 2}, 1, 3)
	ctx := Eval()
	out := r.Forward(ctx, x)
	if out.Data()[0] != 0 || out.Data()[2] != 2 {
		t.Fatalf("relu out = %v", out.Data())
	}
	g := r.Backward(ctx, tensor.Full(1, 1, 3))
	if g.Data()[0] != 0 || g.Data()[1] != 0 || g.Data()[2] != 1 {
		t.Fatalf("relu grad = %v", g.Data())
	}
}

func TestReLU6Caps(t *testing.T) {
	r := NewReLU6()
	x := tensor.New([]float32{-1, 3, 10}, 1, 3)
	ctx := Eval()
	out := r.Forward(ctx, x)
	if out.Data()[0] != 0 || out.Data()[1] != 3 || out.Data()[2] != 6 {
		t.Fatalf("relu6 out = %v", out.Data())
	}
	g := r.Backward(ctx, tensor.Full(1, 1, 3))
	if g.Data()[1] != 1 || g.Data()[2] != 0 {
		t.Fatalf("relu6 grad = %v (gradient at cap must be 0)", g.Data())
	}
}

func TestDropoutTrainEval(t *testing.T) {
	d := NewDropout(0.5)
	x := tensor.Full(1, 1, 1000)

	// Eval: identity.
	out := d.Forward(Eval(), x)
	if !out.Equal(x) {
		t.Fatal("eval dropout must be identity")
	}
	// No RNG: identity even in training.
	out = d.Forward(&Context{Training: true}, x)
	if !out.Equal(x) {
		t.Fatal("dropout without RNG must be identity")
	}
	// Training: roughly half dropped, survivors scaled.
	ctx := Train(tensor.NewRNG(9))
	out = d.Forward(ctx, x)
	zeros, twos := 0, 0
	for _, v := range out.Data() {
		switch v {
		case 0:
			zeros++
		case 2:
			twos++
		default:
			t.Fatalf("unexpected dropout value %v", v)
		}
	}
	if zeros < 400 || zeros > 600 {
		t.Fatalf("dropout rate off: %d zeros", zeros)
	}
	_ = twos
	// Backward uses the same mask.
	g := d.Backward(ctx, tensor.Full(1, 1, 1000))
	for i, v := range g.Data() {
		if (out.Data()[i] == 0) != (v == 0) {
			t.Fatal("backward mask mismatch")
		}
	}
	// Same seed → same mask (reproducible randomness, Section 2.3).
	out2 := d.Forward(Train(tensor.NewRNG(9)), x)
	if !out.Equal(out2) {
		t.Fatal("dropout not reproducible with same seed")
	}
}

func TestMaxPoolKnownValues(t *testing.T) {
	p := NewMaxPool2d(2, 2, 0, false)
	x := tensor.New([]float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 10, 13, 14,
		11, 12, 15, 16,
	}, 1, 1, 4, 4)
	out := p.Forward(Eval(), x)
	want := []float32{4, 8, 12, 16}
	for i, v := range out.Data() {
		if v != want[i] {
			t.Fatalf("maxpool out = %v, want %v", out.Data(), want)
		}
	}
	g := p.Backward(Eval(), tensor.Full(1, 1, 1, 2, 2))
	// Gradient lands only on the max positions.
	var nz int
	for _, v := range g.Data() {
		if v != 0 {
			nz++
		}
	}
	if nz != 4 {
		t.Fatalf("maxpool grad nonzeros = %d, want 4", nz)
	}
}

func TestMaxPoolCeilMode(t *testing.T) {
	// 6x6 input, kernel 3, stride 2: floor gives 2, ceil gives 3.
	floor := NewMaxPool2d(3, 2, 0, false)
	ceil := NewMaxPool2d(3, 2, 0, true)
	x := tensor.Full(1, 1, 1, 6, 6)
	if got := floor.Forward(Eval(), x); got.Dim(2) != 2 {
		t.Fatalf("floor mode out = %v", got.Shape())
	}
	if got := ceil.Forward(Eval(), x); got.Dim(2) != 3 {
		t.Fatalf("ceil mode out = %v", got.Shape())
	}
}

func TestGlobalAvgPool(t *testing.T) {
	g := NewGlobalAvgPool2d()
	x := tensor.New([]float32{1, 2, 3, 4, 10, 20, 30, 40}, 1, 2, 2, 2)
	out := g.Forward(Eval(), x)
	if out.Dim(1) != 2 || out.Dim(2) != 1 || out.Dim(3) != 1 {
		t.Fatalf("gap shape = %v", out.Shape())
	}
	if out.Data()[0] != 2.5 || out.Data()[1] != 25 {
		t.Fatalf("gap out = %v", out.Data())
	}
	grad := g.Backward(Eval(), tensor.New([]float32{4, 8}, 1, 2, 1, 1))
	if grad.Data()[0] != 1 || grad.Data()[4] != 2 {
		t.Fatalf("gap grad = %v", grad.Data())
	}
}

func TestFlatten(t *testing.T) {
	f := NewFlatten()
	x := tensor.Zeros(2, 3, 4, 4)
	out := f.Forward(Eval(), x)
	if out.Dim(0) != 2 || out.Dim(1) != 48 {
		t.Fatalf("flatten shape = %v", out.Shape())
	}
	g := f.Backward(Eval(), tensor.Zeros(2, 48))
	if g.NDim() != 4 || g.Dim(2) != 4 {
		t.Fatalf("flatten backward shape = %v", g.Shape())
	}
}

func TestSequentialForwardBackward(t *testing.T) {
	rng := tensor.NewRNG(10)
	seq := NewSequential(NewLinear(4, 8), NewReLU(), NewLinear(8, 2))
	for _, c := range seq.Children() {
		if l, ok := c.Module.(*Linear); ok {
			InitLinear(rng, l)
		}
	}
	x := tensor.Normal(rng, 0, 1, 3, 4)
	gradCheck(t, "Sequential", seq, x, 1e-2)
}

func TestResidualGradients(t *testing.T) {
	rng := tensor.NewRNG(11)
	body := NewSequential(NewConv2d(2, 2, 3, 1, 1, 1, false), NewBatchNorm2d(2))
	for _, c := range body.Children() {
		if cv, ok := c.Module.(*Conv2d); ok {
			InitConv(rng, cv)
		}
	}
	res := NewResidual(body, nil, NewReLU())
	x := tensor.Normal(rng, 0, 1, 2, 2, 4, 4)
	gradCheck(t, "Residual", res, x, 3e-2)
}

func TestResidualWithShortcutGradients(t *testing.T) {
	rng := tensor.NewRNG(12)
	body := NewConv2d(2, 4, 3, 2, 1, 1, false)
	short := NewConv2d(2, 4, 1, 2, 0, 1, false)
	InitConv(rng, body)
	InitConv(rng, short)
	res := NewResidual(body, short, NewReLU())
	x := tensor.Normal(rng, 0, 1, 1, 2, 4, 4)
	gradCheck(t, "Residual(shortcut)", res, x, 3e-2)
}

func TestConcatGradients(t *testing.T) {
	rng := tensor.NewRNG(13)
	b1 := NewConv2d(2, 3, 1, 1, 0, 1, false)
	b2 := NewConv2d(2, 2, 3, 1, 1, 1, false)
	InitConv(rng, b1)
	InitConv(rng, b2)
	cat := NewConcat(b1, b2)
	x := tensor.Normal(rng, 0, 1, 2, 2, 4, 4)
	out := cat.Forward(&Context{Training: true, Mode: tensor.Deterministic}, x)
	if out.Dim(1) != 5 {
		t.Fatalf("concat channels = %d, want 5", out.Dim(1))
	}
	gradCheck(t, "Concat", cat, x, 2e-2)
}

func TestNamedParamsOrderAndPaths(t *testing.T) {
	seq := NewNamedSequential(
		Child{Name: "conv1", Module: NewConv2d(1, 2, 3, 1, 1, 1, false)},
		Child{Name: "bn1", Module: NewBatchNorm2d(2)},
		Child{Name: "fc", Module: NewLinear(4, 2)},
	)
	params := NamedParams(seq)
	wantPaths := []string{"conv1.weight", "bn1.weight", "bn1.bias", "fc.weight", "fc.bias"}
	if len(params) != len(wantPaths) {
		t.Fatalf("got %d params, want %d", len(params), len(wantPaths))
	}
	for i, p := range params {
		if p.Path != wantPaths[i] {
			t.Fatalf("param %d path = %q, want %q", i, p.Path, wantPaths[i])
		}
	}
}

func TestFreezeAllExcept(t *testing.T) {
	seq := NewNamedSequential(
		Child{Name: "conv1", Module: NewConv2d(1, 2, 3, 1, 1, 1, false)},
		Child{Name: "fc", Module: NewLinear(4, 2)},
	)
	FreezeAllExcept(seq, "fc")
	for _, p := range NamedParams(seq) {
		wantTrainable := p.Path == "fc.weight" || p.Path == "fc.bias"
		if p.Param.Trainable != wantTrainable {
			t.Fatalf("%s trainable = %v", p.Path, p.Param.Trainable)
		}
	}
	if NumTrainableParams(seq) != 4*2+2 {
		t.Fatalf("trainable params = %d", NumTrainableParams(seq))
	}
	prefixes := TrainablePrefixes(seq)
	if len(prefixes) != 1 || prefixes[0] != "fc" {
		t.Fatalf("trainable prefixes = %v", prefixes)
	}
	SetTrainable(seq, true)
	if NumTrainableParams(seq) != NumParams(seq) {
		t.Fatal("SetTrainable(true) failed")
	}
}

// Gradient tensors exist from the first use on, not from construction: a
// backward pass without a prior ZeroGrads allocates them zero-filled and
// accumulates exactly what a pre-zeroed net accumulates.
func TestGradsAllocateOnDemand(t *testing.T) {
	build := func() Module {
		m := NewNamedSequential(
			Child{Name: "conv", Module: NewConv2d(2, 3, 3, 1, 1, 1, true)},
			Child{Name: "bn", Module: NewBatchNorm2d(3)},
			Child{Name: "pool", Module: NewGlobalAvgPool2d()},
			Child{Name: "flat", Module: NewFlatten()},
			Child{Name: "fc", Module: NewLinear(3, 2)},
		)
		rng := tensor.NewRNG(4)
		for _, p := range NamedParams(m) {
			copy(p.Param.Value.Data(), tensor.Uniform(rng, -1, 1, p.Param.Value.Len()).Data())
		}
		return m
	}
	x := tensor.Uniform(tensor.NewRNG(8), -1, 1, 2, 2, 5, 5)
	for _, mode := range []tensor.Mode{tensor.Deterministic, tensor.Parallel} {
		lazy, eager := build(), build()
		for _, p := range NamedParams(lazy) {
			if p.Param.Grad != nil {
				t.Fatalf("%s has a gradient tensor at construction", p.Path)
			}
		}
		ZeroGrads(eager)
		for _, p := range NamedParams(eager) {
			if p.Param.Grad == nil || !p.Param.Grad.SameShape(p.Param.Value) || tensor.MaxAbs(p.Param.Grad) != 0 {
				t.Fatalf("ZeroGrads left %s without a zero gradient of its shape", p.Path)
			}
		}
		ctx := &Context{Training: true, Mode: mode}
		for _, m := range []Module{lazy, eager} {
			out := m.Forward(ctx, x)
			m.Backward(ctx, tensor.Full(1, out.Shape()...))
		}
		lp, ep := NamedParams(lazy), NamedParams(eager)
		for i := range ep {
			if lp[i].Param.Grad == nil {
				t.Fatalf("backward left %s without a gradient", lp[i].Path)
			}
			if mode == tensor.Deterministic && !lp[i].Param.Grad.Equal(ep[i].Param.Grad) {
				t.Fatalf("%s: on-demand gradient differs from the pre-zeroed one", lp[i].Path)
			}
		}
	}
}
