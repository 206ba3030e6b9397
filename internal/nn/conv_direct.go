package nn

import (
	"repro/internal/tensor"
)

// Direct convolution: the deterministic operator implementation. Every
// accumulation runs serially in a fixed element order, so results are
// bit-identical across runs and worker counts — at the cost of the cache
// locality the im2col+matmul fast path gets, which is why deterministic
// training is measurably slower (the effect the paper's Figure 13 reports
// for cuDNN's deterministic kernels).

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
