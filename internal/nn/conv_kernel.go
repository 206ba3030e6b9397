package nn

import "sync"

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
// the input gradient channels-last), four output channels' accumulators
// held at once, and for depthwise layers, whose sums are too short to
// block, all channels advancing side by side.
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
	f       [3][]float32
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
	col := b.buf(0, np*nt)
	for g := 0; g < c.Groups; g++ {
		k.patches(xd, i, g, col)
		end := (g + 1) * k.ocg
		// Four output channels at a time; a group's last block repeats its
		// last channel to fill up and stores only the channels it has.
		for oc := g * k.ocg; oc < end; oc += 4 {
			r1, r2, r3 := min(oc+1, end-1), min(oc+2, end-1), min(oc+3, end-1)
			w0, w1, w2, w3 := k.row(oc), k.row(r1), k.row(r2), k.row(r3)
			for p := 0; p < np; p++ {
				s0, s1, s2, s3 := k.bd[oc], k.bd[r1], k.bd[r2], k.bd[r3]
				x := col[p*nt : (p+1)*nt]
				if taps := k.tapsAt(p); len(taps) == nt {
					s0, s1, s2, s3 = dot4(s0, s1, s2, s3, w0, w1, w2, w3, x)
				} else {
					s0, s1, s2, s3 = dot4At(s0, s1, s2, s3, w0, w1, w2, w3, x, taps)
				}
				out := [4]float32{s0, s1, s2, s3}
				for j, s := range out[:min(4, end-oc)] {
					od[(i*c.OutC+oc+j)*np+p] = s
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
					axpy(gw, v, x)
				} else {
					axpyAt(gw, v, x, taps)
				}
				iy0, ix0 := k.origin(p)
				khLo, khHi := tapRange(p/k.ow, c.Stride, c.Padding, c.KH, k.h)
				kwLo, kwHi := tapRange(p%k.ow, c.Stride, c.Padding, c.KW, k.w)
				for kh := khLo; kh < khHi && kwLo < kwHi; kh++ {
					at := ((iy0+kh)*k.w + ix0 + kwLo) * cg
					wa, n := (kh*c.KW+kwLo)*cg, (kwHi-kwLo)*cg
					axpy(gx[at:at+n], v, wt[wa:wa+n])
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
			x := xt[at*nc : (at+1)*nc]
			for ch := range s {
				s[ch] += k.wd[ch*k.taps+int(t)] * x[ch]
			}
		}
	}
	transpose(od[i*nc*np:(i+1)*nc*np], acc, np, nc)
}

// backwardDepthwise is backwardSample's weight and input gradients for one
// channel per group, channels-last like forwardDepthwise.
func (k *convKernel) backwardDepthwise(b *convBufs, xd, gd, gxd, gW []float32, i int) {
	c := k.c
	nc, hw, np := c.OutC, k.h*k.w, k.oh*k.ow
	xt := transpose(b.buf(0, hw*nc), xd[i*nc*hw:(i+1)*nc*hw], nc, hw)
	gt := transpose(b.buf(1, np*nc), gd[i*nc*np:(i+1)*nc*np], nc, np)
	gxt := b.buf(2, hw*nc)
	clear(gxt)
	for p := 0; p < np; p++ {
		g := gt[p*nc : (p+1)*nc]
		iy0, ix0 := k.origin(p)
		for _, t := range k.tapsAt(p) {
			at := (iy0+int(t)/c.KW)*k.w + ix0 + int(t)%c.KW
			x, gx := xt[at*nc:(at+1)*nc], gxt[at*nc:(at+1)*nc]
			for ch, v := range g {
				if v != 0 {
					gW[ch*k.taps+int(t)] += v * x[ch]
					gx[ch] += v * k.wd[ch*k.taps+int(t)]
				}
			}
		}
	}
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

// dot4 adds x's dot products with w0..w3 to four accumulators, one per
// output element, each taking its terms in order.
func dot4(s0, s1, s2, s3 float32, w0, w1, w2, w3, x []float32) (float32, float32, float32, float32) {
	w0, w1, w2, w3 = w0[:len(x)], w1[:len(x)], w2[:len(x)], w3[:len(x)]
	for t, v := range x {
		s0 += w0[t] * v
		s1 += w1[t] * v
		s2 += w2[t] * v
		s3 += w3[t] * v
	}
	return s0, s1, s2, s3
}

// dot4At is dot4 over the taps listed in at only.
func dot4At(s0, s1, s2, s3 float32, w0, w1, w2, w3, x []float32, at []int32) (float32, float32, float32, float32) {
	for _, t := range at {
		v := x[t]
		s0 += w0[t] * v
		s1 += w1[t] * v
		s2 += w2[t] * v
		s3 += w3[t] * v
	}
	return s0, s1, s2, s3
}

// axpy adds a·x to dst element by element.
func axpy(dst []float32, a float32, x []float32) {
	x = x[:len(dst)]
	for j, v := range x {
		dst[j] += a * v
	}
}

// axpyAt is axpy over the elements listed in at only.
func axpyAt(dst []float32, a float32, x []float32, at []int32) {
	for _, j := range at {
		dst[j] += a * x[j]
	}
}
