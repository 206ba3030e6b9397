package nn

import (
	"repro/internal/tensor"
)

// Linear is a fully connected layer: y = x·Wᵀ + b over [N, In] inputs. It is
// the final classifier of every architecture in the evaluation and the only
// trainable layer of the paper's partially updated model versions.
type Linear struct {
	leafBase
	In, Out   int
	Weight    *Param // [Out, In]
	Bias      *Param // [Out]
	lastInput *tensor.Tensor
}

// NewLinear creates a fully connected layer with zero-initialized weights.
func NewLinear(in, out int) *Linear {
	return &Linear{
		In: in, Out: out,
		Weight: NewParam("weight", tensor.Zeros(out, in)),
		Bias:   NewParam("bias", tensor.Zeros(out)),
	}
}

// OwnParams implements Module.
func (l *Linear) OwnParams() []*Param { return []*Param{l.Weight, l.Bias} }

// Forward implements Module.
func (l *Linear) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	CheckShapes("Linear", x.Shape(), -1, l.In)
	l.lastInput = x
	n := x.Dim(0)
	out := tensor.Zeros(n, l.Out)
	xd, wd, od := x.Data(), l.Weight.Value.Data(), out.Data()
	bd := l.Bias.Value.Data()
	forSamples(ctx, n, func(i int) {
		xrow := xd[i*l.In : (i+1)*l.In]
		orow := od[i*l.Out : (i+1)*l.Out]
		for o := 0; o < l.Out; o++ {
			wrow := wd[o*l.In : (o+1)*l.In]
			s := bd[o]
			for j := range xrow {
				s += xrow[j] * wrow[j]
			}
			orow[o] = s
		}
	})
	return out
}

// Backward implements Module.
func (l *Linear) Backward(ctx *Context, grad *tensor.Tensor) *tensor.Tensor {
	x := l.lastInput
	if x == nil {
		panic("nn: Linear.Backward before Forward")
	}
	n := x.Dim(0)
	gradX := tensor.Zeros(n, l.In)
	xd, wd := x.Data(), l.Weight.Value.Data()
	gd, gxd := grad.Data(), gradX.Data()
	gW, gB := l.Weight.EnsureGrad().Data(), l.Bias.EnsureGrad().Data()

	// Weight/bias gradients accumulate over samples in fixed order; the
	// sample count is small relative to conv work, so a serial loop keeps
	// this deterministic in every mode without a measurable cost.
	for i := 0; i < n; i++ {
		xrow := xd[i*l.In : (i+1)*l.In]
		grow := gd[i*l.Out : (i+1)*l.Out]
		for o := 0; o < l.Out; o++ {
			g := grow[o]
			gB[o] += g
			if g == 0 {
				continue
			}
			wgrow := gW[o*l.In : (o+1)*l.In]
			for j := range xrow {
				wgrow[j] += g * xrow[j]
			}
		}
	}
	forSamples(ctx, n, func(i int) {
		grow := gd[i*l.Out : (i+1)*l.Out]
		gxrow := gxd[i*l.In : (i+1)*l.In]
		for o := 0; o < l.Out; o++ {
			g := grow[o]
			if g == 0 {
				continue
			}
			wrow := wd[o*l.In : (o+1)*l.In]
			for j := range gxrow {
				gxrow[j] += g * wrow[j]
			}
		}
	})
	return gradX
}
