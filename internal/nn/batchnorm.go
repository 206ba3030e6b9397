package nn

import (
	"math"

	"repro/internal/tensor"
)

// BatchNorm2d normalizes each channel over the batch and spatial dimensions.
// Weight (gamma) and bias (beta) are trainable parameters; the running mean
// and variance are buffers, which is why the serialized size of a model
// exceeds 4 bytes × #trainable-parameters in Table 2 of the paper.
type BatchNorm2d struct {
	leafBase
	C        int
	Eps      float32
	Momentum float32 // PyTorch convention: running = (1-m)*running + m*batch

	Weight      *Param  // gamma [C]
	Bias        *Param  // beta [C]
	RunningMean *Buffer // [C]
	RunningVar  *Buffer // [C]

	// Backward caches.
	lastInput *tensor.Tensor
	lastXHat  []float32
	lastMean  []float32
	lastInvSD []float32
}

// NewBatchNorm2d creates a BatchNorm2d over c channels with PyTorch default
// hyperparameters (eps 1e-5, momentum 0.1), gamma=1, beta=0, running mean 0,
// running variance 1.
func NewBatchNorm2d(c int) *BatchNorm2d {
	return Layers{}.BatchNorm2d(c)
}

// BatchNorm2d makes a batch-norm layer (see NewBatchNorm2d).
func (l Layers) BatchNorm2d(c int) *BatchNorm2d {
	return &BatchNorm2d{
		C:           c,
		Eps:         1e-5,
		Momentum:    0.1,
		Weight:      l.param("weight", 1, c),
		Bias:        l.param("bias", 0, c),
		RunningMean: l.buffer("running_mean", 0, c),
		RunningVar:  l.buffer("running_var", 1, c),
	}
}

// OwnParams implements Module.
func (b *BatchNorm2d) OwnParams() []*Param { return []*Param{b.Weight, b.Bias} }

// OwnBuffers implements Module.
func (b *BatchNorm2d) OwnBuffers() []*Buffer { return []*Buffer{b.RunningMean, b.RunningVar} }

// Forward implements Module.
func (b *BatchNorm2d) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	CheckShapes("BatchNorm2d", x.Shape(), -1, b.C, -1, -1)
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	hw := h * w
	cnt := n * hw
	out := tensor.Zeros(x.Shape()...)
	xd, od := x.Data(), out.Data()
	gamma, beta := b.Weight.Value.Data(), b.Bias.Value.Data()

	if !ctx.Training {
		rm, rv := b.RunningMean.Value.Data(), b.RunningVar.Value.Data()
		for c := 0; c < b.C; c++ {
			inv := float32(1 / math.Sqrt(float64(rv[c]+b.Eps)))
			g, be, m := gamma[c], beta[c], rm[c]
			for i := 0; i < n; i++ {
				base := ((i * b.C) + c) * hw
				for j := 0; j < hw; j++ {
					od[base+j] = (xd[base+j]-m)*inv*g + be
				}
			}
		}
		return out
	}

	b.lastInput = x
	b.lastMean = make([]float32, b.C)
	b.lastInvSD = make([]float32, b.C)
	b.lastXHat = make([]float32, len(xd))
	rm, rv := b.RunningMean.Value.Data(), b.RunningVar.Value.Data()
	for c := 0; c < b.C; c++ {
		// Batch statistics in float64 for stability; serial order keeps the
		// result deterministic.
		var sum float64
		for i := 0; i < n; i++ {
			base := ((i * b.C) + c) * hw
			for j := 0; j < hw; j++ {
				sum += float64(xd[base+j])
			}
		}
		mean := float32(sum / float64(cnt))
		var sq float64
		for i := 0; i < n; i++ {
			base := ((i * b.C) + c) * hw
			for j := 0; j < hw; j++ {
				d := float64(xd[base+j] - mean)
				sq += d * d
			}
		}
		biasedVar := float32(sq / float64(cnt))
		inv := float32(1 / math.Sqrt(float64(biasedVar+b.Eps)))
		b.lastMean[c], b.lastInvSD[c] = mean, inv

		// Running stats use the unbiased variance like PyTorch.
		unbiased := biasedVar
		if cnt > 1 {
			unbiased = float32(sq / float64(cnt-1))
		}
		rm[c] = (1-b.Momentum)*rm[c] + b.Momentum*mean
		rv[c] = (1-b.Momentum)*rv[c] + b.Momentum*unbiased

		g, be := gamma[c], beta[c]
		for i := 0; i < n; i++ {
			base := ((i * b.C) + c) * hw
			for j := 0; j < hw; j++ {
				xh := (xd[base+j] - mean) * inv
				b.lastXHat[base+j] = xh
				od[base+j] = xh*g + be
			}
		}
	}
	return out
}

// Backward implements Module. It uses the standard batch-norm gradient:
//
//	dx = (gamma*inv/cnt) * (cnt*dy - sum(dy) - xhat*sum(dy*xhat))
func (b *BatchNorm2d) Backward(ctx *Context, grad *tensor.Tensor) *tensor.Tensor {
	x := b.lastInput
	if x == nil {
		panic("nn: BatchNorm2d.Backward before Forward (or after eval-mode Forward)")
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	hw := h * w
	cnt := float32(n * hw)
	gd := grad.Data()
	gradX := tensor.Zeros(x.Shape()...)
	gxd := gradX.Data()
	gamma := b.Weight.Value.Data()
	gW, gB := b.Weight.EnsureGrad().Data(), b.Bias.EnsureGrad().Data()

	for c := 0; c < b.C; c++ {
		var sumDy, sumDyXHat float32
		for i := 0; i < n; i++ {
			base := ((i * b.C) + c) * hw
			for j := 0; j < hw; j++ {
				dy := gd[base+j]
				sumDy += dy
				sumDyXHat += dy * b.lastXHat[base+j]
			}
		}
		gB[c] += sumDy
		gW[c] += sumDyXHat
		scale := gamma[c] * b.lastInvSD[c] / cnt
		for i := 0; i < n; i++ {
			base := ((i * b.C) + c) * hw
			for j := 0; j < hw; j++ {
				dy := gd[base+j]
				gxd[base+j] = scale * (cnt*dy - sumDy - b.lastXHat[base+j]*sumDyXHat)
			}
		}
	}
	return gradX
}
