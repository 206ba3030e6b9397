package nn

import (
	"sync"

	"repro/internal/vec"
)

// The convolution kernel. It computes bit for bit what the direct kernel
// of earlier builds computed (conv_ref_test.go keeps it as the oracle that
// FuzzConvMatchesReference holds this kernel to): every output element
// keeps one accumulator, fed its terms in the direct kernel's order —
//
//   - output: the bias, then taps (cc, kh, kw) ascending;
//   - weight and bias gradients: the existing gradient, then samples, then
//     output positions (oy, ox), ascending;
//   - input gradient: 0, then output channels, then output positions,
//     ascending — taps in (kh, kw) descending order.
//
// The speed comes only from layout and loop form, never from splitting or
// reassociating one element's sum: layout copies that make inner loops
// contiguous (an output position's taps side by side, weights tap-major,
// the input gradient channels-last), eight output channels' accumulators
// held at once, and for depthwise layers, whose sums are too short to
// block, all channels advancing side by side. The inner loops are package
// vec's kernels, which keep that contract across their vector lanes.
//
// The direct kernel skips padded taps and, in backward, output gradients
// that are exactly zero; so does this one. Padded taps are cut out of every
// loop rather than added as w·0, which would turn a −0 bias on a fully
// padded window into +0.

// convKernel is one Forward or Backward call's geometry, shared read-only
// by every sample of the call and every worker that runs one.
type convKernel struct {
	c            *Conv2d
	h, w, oh, ow int
	cg, ocg      int  // input and output channels per group
	taps         int  // cg*KH*KW: the terms of one output
	depthwise    bool // one input and one output channel per group
	wd, bd       []float32
	// wt is the weights tap-major, [OutC][KH][KW][cg], for the input
	// gradient (set by tapMajor; wd itself where the layouts coincide).
	wt []float32
	// wc is a depthwise layer's weights channels-last, [KH][KW][OutC].
	wc []float32
	// valid lists each output position's unpadded taps, ascending: all
	// k.taps of them where the window lies inside the input (see tapsAt).
	valid   []int32
	validAt []int
	bufs    *convBufs
}

// convBufs is pooled scratch. Forward and Backward run for every layer of
// every training step; allocating these layouts per call instead added
// 5.6% to mixed-adaptive-local's alloc_mb_per_op (0.5% pooled).
type convBufs struct {
	f       [4][]float32
	valid   []int32
	validAt []int
}

var convPool = sync.Pool{New: func() any { return new(convBufs) }}

func getBufs() *convBufs  { return convPool.Get().(*convBufs) }
func putBufs(b *convBufs) { convPool.Put(b) }

// buf returns scratch buffer j with n elements, holding whatever its last
// user left there.
func (b *convBufs) buf(j, n int) []float32 {
	if cap(b.f[j]) < n {
		b.f[j] = make([]float32, n)
	}
	b.f[j] = b.f[j][:n]
	return b.f[j]
}

// newKernel prepares a call over h×w inputs. release returns its buffers
// to the pool.
func (c *Conv2d) newKernel(h, w int) *convKernel {
	oh, ow := c.outSize(h, w)
	k := &convKernel{
		c: c, h: h, w: w, oh: oh, ow: ow,
		cg: c.InC / c.Groups, ocg: c.OutC / c.Groups,
		//mmlint:ignore dataescape the kernel lives for one Forward or Backward call and only reads the weights
		wd: c.Weight.Value.Data(), bufs: getBufs(),
	}
	k.wt = k.wd
	k.taps = k.cg * c.KH * c.KW
	k.depthwise = k.cg == 1 && k.ocg == 1
	if k.depthwise {
		k.wc = transpose(k.bufs.buf(2, len(k.wd)), k.wd, c.OutC, k.taps)
	}
	if c.Bias != nil {
		//mmlint:ignore dataescape the kernel lives for one Forward or Backward call and only reads the bias
		k.bd = c.Bias.Value.Data()
	} else {
		k.bd = k.bufs.buf(1, c.OutC) // a bias-free sum starts at +0
		clear(k.bd)
	}
	b := k.bufs
	b.valid, b.validAt = b.valid[:0], b.validAt[:0]
	for oy := 0; oy < oh; oy++ {
		khLo, khHi := tapRange(oy, c.Stride, c.Padding, c.KH, h)
		for ox := 0; ox < ow; ox++ {
			kwLo, kwHi := tapRange(ox, c.Stride, c.Padding, c.KW, w)
			b.validAt = append(b.validAt, len(b.valid))
			for cc := 0; cc < k.cg; cc++ {
				for kh := khLo; kh < khHi; kh++ {
					for kw := kwLo; kw < kwHi; kw++ {
						b.valid = append(b.valid, int32((cc*c.KH+kh)*c.KW+kw))
					}
				}
			}
		}
	}
	k.valid, k.validAt = b.valid, append(b.validAt, len(b.valid))
	return k
}

func (k *convKernel) release() { putBufs(k.bufs) }

// tapMajor lays the weights out tap-major for the input gradient, so one
// tap's weights across the group's channels are contiguous like the
// channels-last gradient they scale into.
func (k *convKernel) tapMajor() {
	kk := k.c.KH * k.c.KW
	if k.cg == 1 || kk == 1 {
		return // the layouts coincide
	}
	k.wt = k.bufs.buf(0, len(k.wd))
	for at := 0; at < len(k.wd); at += k.taps {
		transpose(k.wt[at:at+k.taps], k.wd[at:at+k.taps], k.cg, kk)
	}
}

// tapRange returns the kernel rows (or columns) [lo, hi) that output row
// (or column) o reads inside an input of extent size: the taps the direct
// kernel does not skip. lo >= hi when the window is entirely padding.
func tapRange(o, stride, pad, k, size int) (lo, hi int) {
	i0 := o*stride - pad
	return max(0, -i0), min(k, size-i0)
}

func (k *convKernel) row(oc int) []float32 { return k.wd[oc*k.taps : (oc+1)*k.taps] }

// tapsAt returns output position p's unpadded taps; all k.taps of them
// means the window lies inside the input and the taps are contiguous.
func (k *convKernel) tapsAt(p int) []int32 { return k.valid[k.validAt[p]:k.validAt[p+1]] }

// origin returns the input pixel under tap 0 of output position p, which
// may lie in the padding.
func (k *convKernel) origin(p int) (iy, ix int) {
	return p/k.ow*k.c.Stride - k.c.Padding, p%k.ow*k.c.Stride - k.c.Padding
}

// patches lays out sample i's channels of group g as col[pos][cc][kh][kw]:
// each output position's taps contiguous, in the order its sum takes them.
// It fills one tap at a time across all positions. Padded taps are neither
// written nor read.
func (k *convKernel) patches(xd []float32, i, g int, col []float32) {
	c := k.c
	hw, nt := k.h*k.w, k.taps
	chans := xd[(i*c.InC+g*k.cg)*hw : (i*c.InC+(g+1)*k.cg)*hw]
	t := 0
	for cc := 0; cc < k.cg; cc++ {
		plane := chans[cc*hw : (cc+1)*hw]
		for kh := 0; kh < c.KH; kh++ {
			for kw := 0; kw < c.KW; kw++ {
				for oy := 0; oy < k.oh; oy++ {
					iy := oy*c.Stride - c.Padding + kh
					if iy < 0 || iy >= k.h {
						continue
					}
					src := plane[iy*k.w : (iy+1)*k.w]
					dst := col[oy*k.ow*nt+t:]
					for ox, ix := 0, kw-c.Padding; ox < k.ow; ox, ix = ox+1, ix+c.Stride {
						if ix >= 0 && ix < len(src) {
							dst[ox*nt] = src[ix]
						}
					}
				}
				t++
			}
		}
	}
}

// forwardSample writes sample i's output: per element, the bias plus its
// unpadded taps in (cc, kh, kw) order.
func (k *convKernel) forwardSample(b *convBufs, xd, od []float32, i int) {
	if k.depthwise {
		k.forwardDepthwise(b, xd, od, i)
		return
	}
	c := k.c
	np, nt := k.oh*k.ow, k.taps
	col, acc, scratch := b.buf(0, np*nt), b.buf(1, np*8), b.buf(2, 8*nt)
	for g := 0; g < c.Groups; g++ {
		k.patches(xd, i, g, col)
		end := (g + 1) * k.ocg
		// Eight output channels at a time; a group's last block may be
		// short, and then runs on a copy of its rows padded with zero rows
		// whose sums are dropped.
		for oc := g * k.ocg; oc < end; oc += 8 {
			m := min(8, end-oc)
			w := k.wd[oc*nt : (oc+m)*nt]
			if m < 8 {
				pad := b.buf(3, 8*nt)
				clear(pad[copy(pad, w):])
				w = pad
			}
			for p := 0; p < np; p++ {
				copy(acc[p*8:p*8+m], k.bd[oc:oc+m])
			}
			// Positions whose windows lie inside the input run together;
			// the others take their unpadded taps one position at a time.
			for p := 0; p < np; {
				if taps := k.tapsAt(p); len(taps) < nt {
					dot8At(acc[p*8:p*8+8], w, col[p*nt:(p+1)*nt], taps)
					p++
					continue
				}
				q := p + 1
				for q < np && len(k.tapsAt(q)) == nt {
					q++
				}
				vec.Dot8(acc[p*8:q*8], w, col[p*nt:q*nt], scratch)
				p = q
			}
			for j := 0; j < m; j++ {
				out := od[(i*c.OutC+oc+j)*np:][:np]
				for p := range out {
					out[p] = acc[p*8+j]
				}
			}
		}
	}
}

// backwardSample adds sample i's terms to the weight and bias gradients gW
// and gB and writes its input gradient into gxd, in the direct kernel's
// loop order: output channel, then output position, then that position's
// unpadded taps.
func (k *convKernel) backwardSample(b *convBufs, xd, gd, gxd, gW, gB []float32, i int) {
	c := k.c
	np, nt, hw, cg := k.oh*k.ow, k.taps, k.h*k.w, k.cg
	for oc := range gB {
		s := gB[oc]
		for _, v := range gd[(i*c.OutC+oc)*np : (i*c.OutC+oc+1)*np] {
			s += v
		}
		gB[oc] = s
	}
	if k.depthwise {
		k.backwardDepthwise(b, xd, gd, gxd, gW, i)
		return
	}
	col := b.buf(0, np*nt)
	for g := 0; g < c.Groups; g++ {
		k.patches(xd, i, g, col)
		// The input gradient accumulates channels-last, so one kernel row's
		// taps across the group's channels are one contiguous run.
		gx := b.buf(1, hw*cg)
		clear(gx)
		for oc := g * k.ocg; oc < (g+1)*k.ocg; oc++ {
			gw, wt := gW[oc*nt:(oc+1)*nt], k.wt[oc*nt:(oc+1)*nt]
			for p, v := range gd[(i*c.OutC+oc)*np : (i*c.OutC+oc+1)*np] {
				if v == 0 {
					continue
				}
				x := col[p*nt : (p+1)*nt]
				if taps := k.tapsAt(p); len(taps) == nt {
					vec.Axpy(gw, v, x)
				} else {
					axpyAt(gw, v, x, taps)
				}
				iy0, ix0 := k.origin(p)
				khLo, khHi := tapRange(p/k.ow, c.Stride, c.Padding, c.KH, k.h)
				kwLo, kwHi := tapRange(p%k.ow, c.Stride, c.Padding, c.KW, k.w)
				for kh := khLo; kh < khHi && kwLo < kwHi; kh++ {
					at := ((iy0+kh)*k.w + ix0 + kwLo) * cg
					wa, n := (kh*c.KW+kwLo)*cg, (kwHi-kwLo)*cg
					vec.Axpy(gx[at:at+n], v, wt[wa:wa+n])
				}
			}
		}
		transpose(gxd[(i*c.InC+g*cg)*hw:(i*c.InC+(g+1)*cg)*hw], gx, hw, cg)
	}
}

// forwardDepthwise is forwardSample for one channel per group. Each sum has
// at most KH*KW terms, too few to block, so all channels advance side by
// side instead, channels-last: one tap of every channel per inner loop.
func (k *convKernel) forwardDepthwise(b *convBufs, xd, od []float32, i int) {
	c := k.c
	nc, hw, np := c.OutC, k.h*k.w, k.oh*k.ow
	xt := transpose(b.buf(0, hw*nc), xd[i*nc*hw:(i+1)*nc*hw], nc, hw)
	acc := b.buf(1, np*nc)
	for p := 0; p < np; p++ {
		s := acc[p*nc : (p+1)*nc]
		copy(s, k.bd)
		iy0, ix0 := k.origin(p)
		for _, t := range k.tapsAt(p) {
			at := (iy0+int(t)/c.KW)*k.w + ix0 + int(t)%c.KW
			vec.MulAdd(s, k.wc[int(t)*nc:(int(t)+1)*nc], xt[at*nc:(at+1)*nc])
		}
	}
	transpose(od[i*nc*np:(i+1)*nc*np], acc, np, nc)
}

// backwardDepthwise is backwardSample's weight and input gradients for one
// channel per group, channels-last like forwardDepthwise: the weight
// gradient too accumulates channels-last, in a copy written back at the end.
func (k *convKernel) backwardDepthwise(b *convBufs, xd, gd, gxd, gW []float32, i int) {
	c := k.c
	nc, hw, np := c.OutC, k.h*k.w, k.oh*k.ow
	xt := transpose(b.buf(0, hw*nc), xd[i*nc*hw:(i+1)*nc*hw], nc, hw)
	gt := transpose(b.buf(1, np*nc), gd[i*nc*np:(i+1)*nc*np], nc, np)
	gxt := b.buf(2, hw*nc)
	clear(gxt)
	gwt := transpose(b.buf(3, len(gW)), gW, nc, k.taps)
	for p := 0; p < np; p++ {
		g := gt[p*nc : (p+1)*nc]
		iy0, ix0 := k.origin(p)
		for _, t := range k.tapsAt(p) {
			at := (iy0+int(t)/c.KW)*k.w + ix0 + int(t)%c.KW
			tc := int(t) * nc
			vec.MulAddNonzero(gwt[tc:tc+nc], g, xt[at*nc:(at+1)*nc])
			vec.MulAddNonzero(gxt[at*nc:(at+1)*nc], g, k.wc[tc:tc+nc])
		}
	}
	transpose(gW, gwt, k.taps, nc)
	transpose(gxd[i*nc*hw:(i+1)*nc*hw], gxt, hw, nc)
}

// transpose writes the rows×cols matrix src into dst as cols×rows and
// returns dst.
func transpose(dst, src []float32, rows, cols int) []float32 {
	for r := 0; r < rows; r++ {
		for c, v := range src[r*cols : (r+1)*cols] {
			dst[c*rows+r] = v
		}
	}
	return dst
}

// dot8At is vec.Dot8 for one position over the taps listed in at only,
// four channels at a time.
func dot8At(acc, w, x []float32, at []int32) {
	nt := len(w) / 8
	for l := 0; l < 8; l += 4 {
		w0, w1, w2, w3 := w[l*nt:][:nt], w[(l+1)*nt:][:nt], w[(l+2)*nt:][:nt], w[(l+3)*nt:][:nt]
		s0, s1, s2, s3 := acc[l], acc[l+1], acc[l+2], acc[l+3]
		for _, t := range at {
			v := x[t]
			s0 += w0[t] * v
			s1 += w1[t] * v
			s2 += w2[t] * v
			s3 += w3[t] * v
		}
		acc[l], acc[l+1], acc[l+2], acc[l+3] = s0, s1, s2, s3
	}
}

// axpyAt adds a·x to dst at the elements listed in at only.
func axpyAt(dst []float32, a float32, x []float32, at []int32) {
	for _, j := range at {
		dst[j] += a * x[j]
	}
}
