package nn

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/par"
	"repro/internal/tensor"
	"repro/internal/vec"
)

// Conv2d is a 2-D convolution over NCHW tensors with optional grouping
// (groups == in channels gives the depthwise convolutions of MobileNetV2).
type Conv2d struct {
	leafBase
	InC, OutC              int
	KH, KW                 int
	Stride                 int
	Padding                int
	Groups                 int
	Weight                 *Param // [OutC, InC/Groups, KH, KW]
	Bias                   *Param // [OutC], nil when the layer has no bias
	lastInput              *tensor.Tensor
	lastInputH, lastInputW int
}

// NewConv2d creates a convolution layer with zero-initialized weights; call
// an initializer from init.go (or load a state dict) before use. bias
// selects whether the layer has a bias term — the paper's architectures
// follow the torchvision convention of bias-free convolutions in front of
// BatchNorm.
func NewConv2d(inC, outC, kernel, stride, padding, groups int, bias bool) *Conv2d {
	return Layers{}.Conv2d(inC, outC, kernel, stride, padding, groups, bias)
}

// Conv2d makes a convolution layer (see NewConv2d).
func (l Layers) Conv2d(inC, outC, kernel, stride, padding, groups int, bias bool) *Conv2d {
	if inC%groups != 0 || outC%groups != 0 {
		panic(fmt.Sprintf("nn: conv channels %d->%d not divisible by groups %d", inC, outC, groups))
	}
	c := &Conv2d{
		InC: inC, OutC: outC,
		KH: kernel, KW: kernel,
		Stride: stride, Padding: padding, Groups: groups,
		Weight: l.param("weight", 0, outC, inC/groups, kernel, kernel),
	}
	if bias {
		c.Bias = l.param("bias", 0, outC)
	}
	return c
}

// OwnParams implements Module.
func (c *Conv2d) OwnParams() []*Param {
	if c.Bias != nil {
		return []*Param{c.Weight, c.Bias}
	}
	return []*Param{c.Weight}
}

func (c *Conv2d) outSize(h, w int) (int, int) {
	oh := (h+2*c.Padding-c.KH)/c.Stride + 1
	ow := (w+2*c.Padding-c.KW)/c.Stride + 1
	if oh < 1 || ow < 1 {
		panic(fmt.Sprintf("nn: conv output %dx%d for input %dx%d", oh, ow, h, w))
	}
	return oh, ow
}

// Forward implements Module.
//
// One kernel (conv_kernel.go) backs both execution modes, and the modes
// differ only in schedule, mirroring how deep-learning frameworks expose
// deterministic operator variants (paper Section 2.3): deterministic mode
// runs the samples one after another, parallel mode runs the same
// per-sample kernel across goroutines. Forward has no reduction across
// samples, so both modes produce the same bits; the cost of determinism
// the paper's Figure 13 measures is the parallelism given up.
func (c *Conv2d) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	CheckShapes("Conv2d", x.Shape(), -1, c.InC, -1, -1)
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	c.lastInput, c.lastInputH, c.lastInputW = x, h, w
	k := c.newKernel(h, w)
	defer k.release()
	out := tensor.Zeros(n, c.OutC, k.oh, k.ow)
	forChunks(ctx, n, func(lo, hi int) {
		b := getBufs()
		for i := lo; i < hi; i++ {
			k.forwardSample(b, x.Data(), out.Data(), i)
		}
		putBufs(b)
	})
	return out
}

// Backward implements Module. Deterministic mode adds every sample's
// weight and bias gradient terms straight into the gradients, in sample
// order. Parallel mode runs the same per-sample kernel across goroutines,
// each into its own zeroed partial, and folds the partials in arrival
// order, which makes the accumulated float gradients order-dependent like
// non-deterministic GPU kernels.
func (c *Conv2d) Backward(ctx *Context, grad *tensor.Tensor) *tensor.Tensor {
	x := c.lastInput
	if x == nil {
		panic("nn: Conv2d.Backward before Forward")
	}
	n := x.Dim(0)
	k := c.newKernel(c.lastInputH, c.lastInputW)
	defer k.release()
	k.tapMajor()
	gradX := tensor.Zeros(x.Shape()...)
	gW := c.Weight.EnsureGrad().Data()
	var gB []float32
	if c.Bias != nil {
		gB = c.Bias.EnsureGrad().Data()
	}
	var fold sync.Mutex
	forChunks(ctx, n, func(lo, hi int) {
		gw, gb := gW, gB
		if ctx.Mode != tensor.Deterministic {
			gw, gb = make([]float32, len(gW)), make([]float32, len(gB))
		}
		b := getBufs()
		for i := lo; i < hi; i++ {
			k.backwardSample(b, x.Data(), grad.Data(), gradX.Data(), gw, gb, i)
		}
		putBufs(b)
		if ctx.Mode == tensor.Deterministic {
			return
		}
		fold.Lock() // arrival order: non-deterministic accumulation
		defer fold.Unlock()
		vec.Axpy(gW, 1, gw) // 1·v is v: a plain elementwise add
		for j, v := range gb {
			gB[j] += v
		}
	})
	return gradX
}

// forSamples runs fn for every sample index: serially in deterministic mode,
// across goroutines in parallel mode. fn must only write sample-disjoint
// output regions.
func forSamples(ctx *Context, n int, fn func(i int)) {
	forChunks(ctx, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// forChunks runs fn over samples [0, n): as one chunk in deterministic mode,
// otherwise as one contiguous chunk per P, concurrently.
func forChunks(ctx *Context, n int, fn func(lo, hi int)) {
	if ctx.Mode == tensor.Deterministic {
		fn(0, n)
		return
	}
	par.Chunks(n, runtime.GOMAXPROCS(0), fn)
}
