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

// Forward implements Module. A fully connected layer is a 1×1 convolution
// over a 1×1 image, so it runs on the convolution kernel: each output is
// the bias plus its inputs' terms in order, and the modes differ only in
// schedule, as for Conv2d.
func (l *Linear) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	CheckShapes("Linear", x.Shape(), -1, l.In)
	l.lastInput = x
	n := x.Dim(0)
	return l.conv().Forward(ctx, x.Reshape(n, l.In, 1, 1)).Reshape(n, l.Out)
}

// Backward implements Module.
func (l *Linear) Backward(ctx *Context, grad *tensor.Tensor) *tensor.Tensor {
	x := l.lastInput
	if x == nil {
		panic("nn: Linear.Backward before Forward")
	}
	n := x.Dim(0)
	c := l.conv()
	c.lastInput, c.lastInputH, c.lastInputW = x.Reshape(n, l.In, 1, 1), 1, 1
	return c.Backward(ctx, grad.Reshape(n, l.Out, 1, 1)).Reshape(n, l.In)
}

// conv is the layer as the convolution it computes, sharing its parameters.
func (l *Linear) conv() *Conv2d {
	return &Conv2d{InC: l.In, OutC: l.Out, KH: 1, KW: 1, Stride: 1, Groups: 1, Weight: l.Weight, Bias: l.Bias}
}
