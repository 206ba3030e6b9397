package train

import (
	"math"
	"testing"
	_ "unsafe" // go:linkname

	"repro/internal/nn"
	"repro/internal/tensor"
)

// setAVX2 is package vec's test seam: it turns the AVX2 kernels on (where
// the CPU has them) or off, so the scalar twins, the only kernels off
// amd64, are checked on amd64 too.
//
//go:linkname setAVX2 repro/internal/vec.setAVX2
func setAVX2(on bool) (was bool)

// onKernelPaths runs fn as subtest "avx2" on the AVX2 kernels, then as
// "scalar" on their scalar twins.
func onKernelPaths(t *testing.T, fn func(t *testing.T)) {
	for _, on := range []bool{true, false} {
		t.Run(map[bool]string{true: "avx2", false: "scalar"}[on], func(t *testing.T) {
			defer setAVX2(setAVX2(on))
			fn(t)
		})
	}
}

// An SGD step with weight decay, momentum and clipping computes, on either
// kernel path, exactly what the update's loops compute written out, over a
// layer long enough for the vector bodies and their tails.
func TestSGDStepMatchesLoops(t *testing.T) {
	cfg := SGDConfig{LR: 0.05, Momentum: 0.9, WeightDecay: 1e-3, ClipNorm: 0.5}
	build := func() *nn.Linear {
		l := nn.NewLinear(9, 5)
		rng := tensor.NewRNG(3)
		for _, p := range l.OwnParams() {
			for i := range p.Value.Data() {
				p.Value.Data()[i] = float32(rng.NormFloat64())
			}
		}
		return l
	}
	grads := func(step int, l *nn.Linear) {
		rng := tensor.NewRNG(uint64(10 + step))
		for _, p := range l.OwnParams() {
			g := p.EnsureGrad().Data()
			for i := range g {
				g[i] = float32(rng.NormFloat64())
			}
			g[0] = 0
		}
	}
	// The update written out: clip, decay, momentum, in state-dict order.
	want := build()
	vel := map[*nn.Param][]float32{}
	for step := 0; step < 3; step++ {
		grads(step, want)
		var sq float64
		for _, p := range want.OwnParams() {
			for _, g := range p.Grad.Data() {
				sq += float64(g) * float64(g)
			}
		}
		norm := float32(math.Sqrt(sq))
		for _, p := range want.OwnParams() {
			w, g := p.Value.Data(), p.Grad.Data()
			if vel[p] == nil {
				vel[p] = make([]float32, len(w))
			}
			v := vel[p]
			for i := range g {
				if norm > cfg.ClipNorm {
					g[i] *= cfg.ClipNorm / norm
				}
				g[i] += cfg.WeightDecay * w[i]
				v[i] = cfg.Momentum*v[i] + g[i]
				w[i] -= cfg.LR * v[i]
			}
		}
	}
	onKernelPaths(t, func(t *testing.T) {
		got, opt := build(), NewSGD(cfg)
		for step := 0; step < 3; step++ {
			grads(step, got)
			opt.Step(got)
		}
		for i, p := range got.OwnParams() {
			if !p.Value.Equal(want.OwnParams()[i].Value) {
				t.Fatalf("%s after three steps = %v, want %v", p.Name, p.Value.Data(), want.OwnParams()[i].Value.Data())
			}
		}
	})
}
