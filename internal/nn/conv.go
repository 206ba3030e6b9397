package nn

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/tensor"
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
// an initializer from init.go (or LoadStateDict) before use. bias selects
// whether the layer has a bias term — the paper's architectures follow the
// torchvision convention of bias-free convolutions in front of BatchNorm.
func NewConv2d(inC, outC, kernel, stride, padding, groups int, bias bool) *Conv2d {
	if inC%groups != 0 || outC%groups != 0 {
		panic(fmt.Sprintf("nn: conv channels %d->%d not divisible by groups %d", inC, outC, groups))
	}
	c := &Conv2d{
		InC: inC, OutC: outC,
		KH: kernel, KW: kernel,
		Stride: stride, Padding: padding, Groups: groups,
		Weight: NewParam("weight", tensor.Zeros(outC, inC/groups, kernel, kernel)),
	}
	if bias {
		c.Bias = NewParam("bias", tensor.Zeros(outC))
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
// Two implementations back this layer, mirroring how deep-learning
// frameworks expose deterministic operator variants (paper Section 2.3):
// parallel mode uses the fast im2col+matmul algorithm with goroutine
// parallelism; deterministic mode uses a direct convolution whose
// accumulation order is fixed element by element. Like cuDNN's
// deterministic kernels, the deterministic algorithm is slower — that cost
// is exactly what the paper's Figure 13 measures.
func (c *Conv2d) Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor {
	CheckShapes("Conv2d", x.Shape(), -1, c.InC, -1, -1)
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	oh, ow := c.outSize(h, w)
	c.lastInput, c.lastInputH, c.lastInputW = x, h, w

	if ctx.Mode == tensor.Deterministic {
		return c.forwardDirect(x, n, h, w, oh, ow)
	}
	out := tensor.Zeros(n, c.OutC, oh, ow)
	cg := c.InC / c.Groups
	ocg := c.OutC / c.Groups
	colRows := cg * c.KH * c.KW
	ohw := oh * ow

	forSamples(ctx, n, func(i int) {
		col := make([]float32, colRows*ohw)
		for g := 0; g < c.Groups; g++ {
			c.im2col(x, i, g*cg, cg, h, w, oh, ow, col)
			// out_g = W_g (ocg × colRows) · col (colRows × ohw)
			wData := c.Weight.Value.Data()[g*ocg*colRows : (g+1)*ocg*colRows]
			dst := out.Data()[((i*c.OutC)+g*ocg)*ohw : ((i*c.OutC)+(g+1)*ocg)*ohw]
			matmulInto(wData, col, dst, ocg, colRows, ohw)
		}
		if c.Bias != nil {
			bd := c.Bias.Value.Data()
			od := out.Data()[i*c.OutC*ohw : (i+1)*c.OutC*ohw]
			for oc := 0; oc < c.OutC; oc++ {
				b := bd[oc]
				seg := od[oc*ohw : (oc+1)*ohw]
				for j := range seg {
					seg[j] += b
				}
			}
		}
	})
	return out
}

// Backward implements Module. Deterministic mode uses the direct algorithm
// with a fixed accumulation order; parallel mode uses im2col with
// goroutine-parallel partial gradients folded in arrival order.
func (c *Conv2d) Backward(ctx *Context, grad *tensor.Tensor) *tensor.Tensor {
	x := c.lastInput
	if x == nil {
		panic("nn: Conv2d.Backward before Forward")
	}
	n := x.Dim(0)
	h, w := c.lastInputH, c.lastInputW
	oh, ow := c.outSize(h, w)
	if ctx.Mode == tensor.Deterministic {
		return c.backwardDirect(x, grad, n, h, w, oh, ow)
	}
	cg := c.InC / c.Groups
	ocg := c.OutC / c.Groups
	colRows := cg * c.KH * c.KW
	ohw := oh * ow

	gradX := tensor.Zeros(x.Shape()...)
	gW := c.Weight.EnsureGrad().Data()
	var gB []float32
	if c.Bias != nil {
		gB = c.Bias.EnsureGrad().Data()
	}

	// Per-sample work producing local weight/bias gradient partials. In
	// deterministic mode partials are folded in sample order; in parallel
	// mode they are folded in goroutine completion order, which makes the
	// accumulated float gradients order-dependent like non-deterministic
	// GPU kernels.
	work := func(i int, localGW, localGB []float32) {
		col := make([]float32, colRows*ohw)
		colGrad := make([]float32, colRows*ohw)
		for g := 0; g < c.Groups; g++ {
			c.im2col(x, i, g*cg, cg, h, w, oh, ow, col)
			gOut := grad.Data()[((i*c.OutC)+g*ocg)*ohw : ((i*c.OutC)+(g+1)*ocg)*ohw]
			// localGW_g += gOut (ocg × ohw) · col^T (ohw × colRows)
			matmulABt(gOut, col, localGW[g*ocg*colRows:(g+1)*ocg*colRows], ocg, ohw, colRows)
			// colGrad = W_g^T (colRows × ocg) · gOut (ocg × ohw)
			wData := c.Weight.Value.Data()[g*ocg*colRows : (g+1)*ocg*colRows]
			matmulAtB(wData, gOut, colGrad, ocg, colRows, ohw)
			c.col2im(gradX, i, g*cg, cg, h, w, oh, ow, colGrad)
		}
		if localGB != nil {
			for oc := 0; oc < c.OutC; oc++ {
				seg := grad.Data()[((i*c.OutC)+oc)*ohw : ((i*c.OutC)+oc+1)*ohw]
				var s float32
				for _, v := range seg {
					s += v
				}
				localGB[oc] += s
			}
		}
	}

	type partial struct {
		gw, gb []float32
	}
	workers := runtime.NumCPU()
	if workers > n {
		workers = n
	}
	parts := make(chan partial, workers)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	launched := 0
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		launched++
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			localGW := make([]float32, len(gW))
			var localGB []float32
			if gB != nil {
				localGB = make([]float32, len(gB))
			}
			for i := lo; i < hi; i++ {
				work(i, localGW, localGB)
			}
			parts <- partial{gw: localGW, gb: localGB}
		}(lo, hi)
	}
	for k := 0; k < launched; k++ {
		p := <-parts // arrival order: non-deterministic accumulation
		for j := range gW {
			gW[j] += p.gw[j]
		}
		for j := range gB {
			gB[j] += p.gb[j]
		}
	}
	wg.Wait()
	return gradX
}

// im2col unpacks the receptive fields of sample i, channels
// [cStart, cStart+cCount), into col laid out [cCount*KH*KW][oh*ow].
func (c *Conv2d) im2col(x *tensor.Tensor, i, cStart, cCount, h, w, oh, ow int, col []float32) {
	xd := x.Data()
	s, p := c.Stride, c.Padding
	ohw := oh * ow
	for cc := 0; cc < cCount; cc++ {
		chBase := ((i * c.InC) + cStart + cc) * h * w
		for kh := 0; kh < c.KH; kh++ {
			for kw := 0; kw < c.KW; kw++ {
				row := ((cc*c.KH)+kh)*c.KW + kw
				dst := col[row*ohw : (row+1)*ohw]
				for oy := 0; oy < oh; oy++ {
					iy := oy*s - p + kh
					if iy < 0 || iy >= h {
						for ox := 0; ox < ow; ox++ {
							dst[oy*ow+ox] = 0
						}
						continue
					}
					rowBase := chBase + iy*w
					for ox := 0; ox < ow; ox++ {
						ix := ox*s - p + kw
						if ix < 0 || ix >= w {
							dst[oy*ow+ox] = 0
						} else {
							dst[oy*ow+ox] = xd[rowBase+ix]
						}
					}
				}
			}
		}
	}
}

// col2im scatter-adds colGrad (laid out like im2col's output) back into
// gradX for sample i, channels [cStart, cStart+cCount).
func (c *Conv2d) col2im(gradX *tensor.Tensor, i, cStart, cCount, h, w, oh, ow int, colGrad []float32) {
	gd := gradX.Data()
	s, p := c.Stride, c.Padding
	ohw := oh * ow
	for cc := 0; cc < cCount; cc++ {
		chBase := ((i * c.InC) + cStart + cc) * h * w
		for kh := 0; kh < c.KH; kh++ {
			for kw := 0; kw < c.KW; kw++ {
				row := ((cc*c.KH)+kh)*c.KW + kw
				src := colGrad[row*ohw : (row+1)*ohw]
				for oy := 0; oy < oh; oy++ {
					iy := oy*s - p + kh
					if iy < 0 || iy >= h {
						continue
					}
					rowBase := chBase + iy*w
					for ox := 0; ox < ow; ox++ {
						ix := ox*s - p + kw
						if ix >= 0 && ix < w {
							gd[rowBase+ix] += src[oy*ow+ox]
						}
					}
				}
			}
		}
	}
}

// matmulInto computes dst = a (m×k) · b (k×n) over raw float32 slices.
func matmulInto(a, b, dst []float32, m, k, n int) {
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		drow := dst[i*n : (i+1)*n]
		for p := 0; p < k; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := b[p*n : (p+1)*n]
			for j := range drow {
				drow[j] += av * brow[j]
			}
		}
	}
}

// matmulABt computes dst += a (m×k) · bᵀ where b is (n×k), yielding (m×n).
func matmulABt(a, b, dst []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		drow := dst[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			var s float32
			for p := 0; p < k; p++ {
				s += arow[p] * brow[p]
			}
			drow[j] += s
		}
	}
}

// matmulAtB computes dst = aᵀ · b where a is (m×k) and b is (m×n),
// yielding (k×n).
func matmulAtB(a, b, dst []float32, m, k, n int) {
	for i := range dst[:k*n] {
		dst[i] = 0
	}
	for p := 0; p < m; p++ {
		arow := a[p*k : (p+1)*k]
		brow := b[p*n : (p+1)*n]
		for i := 0; i < k; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			drow := dst[i*n : (i+1)*n]
			for j := range drow {
				drow[j] += av * brow[j]
			}
		}
	}
}

// forSamples runs fn for every sample index: serially in deterministic mode,
// across goroutines in parallel mode. fn must only write sample-disjoint
// output regions.
func forSamples(ctx *Context, n int, fn func(i int)) {
	if ctx.Mode == tensor.Deterministic || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	workers := runtime.NumCPU()
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}
