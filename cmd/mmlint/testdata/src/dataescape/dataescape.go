// Package dataescape is an mmlint fixture: one Data() slice escapes into
// each kind of place the dataescape analyzer guards, and the uses that
// stay local are quiet.
package dataescape

import "repro/cmd/mmlint/testdata/src/dataescape/tensor"

type kernel struct {
	w []float32
}

var last []float32

// IntoField stores the slice in a field.
func IntoField(k *kernel, t *tensor.Tensor) {
	d := t.Data()
	k.w = d
}

// IntoLiteral builds a struct around the slice.
func IntoLiteral(t *tensor.Tensor) *kernel {
	return &kernel{w: t.Data()}
}

// IntoMap stores a reslice in a map element.
func IntoMap(m map[string][]float32, t *tensor.Tensor) {
	d := t.Data()
	m["w"] = d[1:]
}

// IntoSlice appends the slice to a slice of slices.
func IntoSlice(ws [][]float32, t *tensor.Tensor) [][]float32 {
	return append(ws, t.Data())
}

// IntoPackageVar keeps the slice in a package variable.
func IntoPackageVar(t *tensor.Tensor) {
	last = t.Data()
}

// IntoChannel sends the slice.
func IntoChannel(ch chan<- []float32, t *tensor.Tensor) {
	ch <- t.Data()
}

// Returned hands the slice to the caller.
func Returned(t *tensor.Tensor) []float32 {
	d := t.Data()
	return d
}

// IntoGoroutine writes through the slice from a goroutine.
func IntoGoroutine(t *tensor.Tensor, done chan<- struct{}) {
	d := t.Data()
	go func() {
		d[0] = 1
		done <- struct{}{}
	}()
}

// Local uses the slice where it was taken and hands it to a callee as an
// argument: no finding.
func Local(t *tensor.Tensor, src []float32) float32 {
	d := t.Data()
	copy(d, src)
	d[0] += 1
	return sum(d) + d[1]
}

func sum(x []float32) float32 {
	var s float32
	for _, v := range x {
		s += v
	}
	return s
}

// Suppressed keeps a read-only alias for one call, with a recorded reason.
func Suppressed(t *tensor.Tensor) float32 {
	//mmlint:ignore dataescape fixture: the kernel lives for this call only and never writes
	k := kernel{w: t.Data()}
	return sum(k.w)
}
