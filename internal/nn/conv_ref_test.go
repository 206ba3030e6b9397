package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// The oracle: the direct convolution every earlier build trained with,
// kept verbatim. Every accumulation runs serially in a fixed element order;
// the blocked kernel (conv_kernel.go) must reproduce its output and
// gradients bit for bit, because a model saved by an earlier build replays
// its training through today's kernel (see FuzzConvMatchesReference).

// forwardDirect computes the convolution output without im2col.
func (c *Conv2d) forwardDirect(x *tensor.Tensor, n, h, w, oh, ow int) *tensor.Tensor {
	out := tensor.Zeros(n, c.OutC, oh, ow)
	xd, od, wd := x.Data(), out.Data(), c.Weight.Value.Data()
	var bd []float32
	if c.Bias != nil {
		bd = c.Bias.Value.Data()
	}
	cg := c.InC / c.Groups
	ocg := c.OutC / c.Groups
	kArea := c.KH * c.KW
	s, p := c.Stride, c.Padding

	for i := 0; i < n; i++ {
		for oc := 0; oc < c.OutC; oc++ {
			g := oc / ocg
			wBase := oc * cg * kArea
			outBase := ((i * c.OutC) + oc) * oh * ow
			var bias float32
			if bd != nil {
				bias = bd[oc]
			}
			for oy := 0; oy < oh; oy++ {
				iy0 := oy*s - p
				for ox := 0; ox < ow; ox++ {
					ix0 := ox*s - p
					acc := bias
					for cc := 0; cc < cg; cc++ {
						chBase := ((i * c.InC) + g*cg + cc) * h * w
						wRow := wd[wBase+cc*kArea : wBase+(cc+1)*kArea]
						for kh := 0; kh < c.KH; kh++ {
							iy := iy0 + kh
							if iy < 0 || iy >= h {
								continue
							}
							rowBase := chBase + iy*w
							kRow := wRow[kh*c.KW : (kh+1)*c.KW]
							for kw := 0; kw < c.KW; kw++ {
								ix := ix0 + kw
								if ix < 0 || ix >= w {
									continue
								}
								acc += kRow[kw] * xd[rowBase+ix]
							}
						}
					}
					od[outBase+oy*ow+ox] = acc
				}
			}
		}
	}
	return out
}

// backwardDirect computes input, weight, and bias gradients without im2col,
// accumulating in a fixed serial order.
func (c *Conv2d) backwardDirect(x, grad *tensor.Tensor, n, h, w, oh, ow int) *tensor.Tensor {
	gradX := tensor.Zeros(x.Shape()...)
	xd, gd, wd := x.Data(), grad.Data(), c.Weight.Value.Data()
	gxd := gradX.Data()
	gW := c.Weight.EnsureGrad().Data()
	var gB []float32
	if c.Bias != nil {
		gB = c.Bias.EnsureGrad().Data()
	}
	cg := c.InC / c.Groups
	ocg := c.OutC / c.Groups
	kArea := c.KH * c.KW
	s, p := c.Stride, c.Padding

	for i := 0; i < n; i++ {
		for oc := 0; oc < c.OutC; oc++ {
			g := oc / ocg
			wBase := oc * cg * kArea
			outBase := ((i * c.OutC) + oc) * oh * ow
			for oy := 0; oy < oh; oy++ {
				iy0 := oy*s - p
				for ox := 0; ox < ow; ox++ {
					gout := gd[outBase+oy*ow+ox]
					if gB != nil {
						gB[oc] += gout
					}
					if gout == 0 {
						continue
					}
					ix0 := ox*s - p
					for cc := 0; cc < cg; cc++ {
						chBase := ((i * c.InC) + g*cg + cc) * h * w
						wOff := wBase + cc*kArea
						for kh := 0; kh < c.KH; kh++ {
							iy := iy0 + kh
							if iy < 0 || iy >= h {
								continue
							}
							rowBase := chBase + iy*w
							for kw := 0; kw < c.KW; kw++ {
								ix := ix0 + kw
								if ix < 0 || ix >= w {
									continue
								}
								idx := rowBase + ix
								gW[wOff+kh*c.KW+kw] += gout * xd[idx]
								gxd[idx] += gout * wd[wOff+kh*c.KW+kw]
							}
						}
					}
				}
			}
		}
	}
	return gradX
}

// FuzzConvMatchesReference draws a convolution geometry and operands and
// asserts that Forward and Backward in deterministic mode reproduce the
// direct kernel bit for bit: output, input gradient, and weight and bias
// gradients accumulated onto nonzero starting values. Operands carry the
// values where an order or a skipped term shows: exact zeros in the input,
// the weights and the output gradient, −0 in the bias and the starting
// gradients.
func FuzzConvMatchesReference(f *testing.F) {
	// n, groups, in/out channels per group, kernel, stride, padding, h, w,
	// bias, seed. The checked-in corpus (testdata/fuzz) holds the layer
	// kinds the benchmark's models train; these are extra starting points.
	f.Add(uint8(2), uint8(1), uint8(3), uint8(5), uint8(3), uint8(1), uint8(1), uint8(9), uint8(9), true, uint64(1))
	f.Add(uint8(1), uint8(3), uint8(1), uint8(2), uint8(5), uint8(2), uint8(2), uint8(6), uint8(7), false, uint64(2))
	f.Fuzz(func(t *testing.T, n, groups, cin, cout, k, stride, pad, h, w uint8, bias bool, seed uint64) {
		kk := wrap(k, 1, 7)
		if kk == 4 || kk == 6 {
			kk-- // kernels 1, 2, 3, 5, 7
		}
		g := wrap(groups, 1, 4)
		p := wrap(pad, 0, kk)
		ih, iw := wrap(h, 1, 16), wrap(w, 1, 16)
		if ih+2*p < kk || iw+2*p < kk {
			return // no output position
		}
		c := NewConv2d(g*wrap(cin, 1, 6), g*wrap(cout, 1, 9), kk, wrap(stride, 1, 3), p, g, bias)
		checkConvMatchesReference(t, c, wrap(n, 1, 3), ih, iw, seed)
	})
}

// wrap maps v into [lo, hi], leaving values already there unchanged so
// corpus entries read as the geometry they test.
func wrap(v uint8, lo, hi int) int {
	m := hi - lo + 1
	return lo + ((int(v)-lo)%m+m)%m
}

// fuzzValues draws n normal values; every zeroEvery-th draw (on average)
// becomes an exact zero of either sign, and indices divisible by negZeroAt
// are −0 (negZeroAt 0: none).
func fuzzValues(rng *tensor.RNG, n, zeroEvery, negZeroAt int) []float32 {
	v := make([]float32, n)
	negZero := float32(math.Copysign(0, -1))
	for i := range v {
		switch {
		case negZeroAt > 0 && i%negZeroAt == 0:
			v[i] = negZero
		case zeroEvery > 0 && rng.Intn(zeroEvery) == 0:
			if rng.Intn(2) == 0 {
				v[i] = negZero
			} else {
				v[i] = 0
			}
		default:
			v[i] = float32(rng.NormFloat64())
		}
	}
	return v
}

func checkConvMatchesReference(t *testing.T, c *Conv2d, n, h, w int, seed uint64) {
	t.Helper()
	rng := tensor.NewRNG(seed)
	copy(c.Weight.Value.Data(), fuzzValues(rng, c.Weight.Value.Len(), 8, 0))
	if c.Bias != nil {
		copy(c.Bias.Value.Data(), fuzzValues(rng, c.OutC, 4, 3))
	}
	x := tensor.New(fuzzValues(rng, n*c.InC*h*w, 4, 0), n, c.InC, h, w)
	oh, ow := c.outSize(h, w)
	grad := tensor.New(fuzzValues(rng, n*c.OutC*oh*ow, 4, 0), n, c.OutC, oh, ow)
	startGW := tensor.New(fuzzValues(rng, c.Weight.Value.Len(), 0, 5), c.Weight.Value.Shape()...)
	startGB := tensor.New(fuzzValues(rng, c.OutC, 0, 3), c.OutC)
	// run returns output, input gradient, weight gradient and, with a bias,
	// bias gradient, starting from the same gradients every time.
	run := func(forward func() *tensor.Tensor, backward func() *tensor.Tensor) []*tensor.Tensor {
		c.Weight.Grad = startGW.Clone()
		if c.Bias != nil {
			c.Bias.Grad = startGB.Clone()
		}
		res := []*tensor.Tensor{forward()}
		res = append(res, backward(), c.Weight.Grad)
		if c.Bias != nil {
			res = append(res, c.Bias.Grad)
		}
		return res
	}
	want := run(func() *tensor.Tensor { return c.forwardDirect(x, n, h, w, oh, ow) },
		func() *tensor.Tensor { return c.backwardDirect(x, grad, n, h, w, oh, ow) })
	ctx := &Context{Training: true, Mode: tensor.Deterministic}
	got := run(func() *tensor.Tensor { return c.Forward(ctx, x) },
		func() *tensor.Tensor { return c.Backward(ctx, grad) })

	for j, name := range []string{"output", "input gradient", "weight gradient", "bias gradient"}[:len(want)] {
		if !got[j].SameShape(want[j]) {
			t.Fatalf("%s: %s shape %v, want %v", convGeom(c, n, h, w), name, got[j].Shape(), want[j].Shape())
		}
		if at := firstBitDiff(got[j], want[j]); at >= 0 {
			g, v := got[j].Data()[at], want[j].Data()[at]
			t.Fatalf("%s: %s differs from the direct kernel at %d: %v (%#x) vs %v (%#x)",
				convGeom(c, n, h, w), name, at, g, math.Float32bits(g), v, math.Float32bits(v))
		}
	}
}

func convGeom(c *Conv2d, n, h, w int) string {
	return fmt.Sprintf("n=%d in=%d out=%d groups=%d k=%d stride=%d pad=%d %dx%d bias=%v",
		n, c.InC, c.OutC, c.Groups, c.KH, c.Stride, c.Padding, h, w, c.Bias != nil)
}

// firstBitDiff returns the first index where a and b differ in bits, or -1.
func firstBitDiff(a, b *tensor.Tensor) int {
	for i, v := range a.Data() {
		if math.Float32bits(v) != math.Float32bits(b.Data()[i]) {
			return i
		}
	}
	return -1
}
