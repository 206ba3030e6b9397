// Package tensor is an mmlint fixture for dataescape: its path ends in the
// "tensor" segment, so its Tensor's Data() is the writable accessor whose
// result must not escape — and inside this package the rule does not apply.
package tensor

// Tensor stands in for the real tensor type.
type Tensor struct {
	gen  uint64
	data []float32
}

// Data bumps the generation and hands out the writable slice.
func (t *Tensor) Data() []float32 {
	t.gen++
	return t.data
}

// view returns the slice from inside the package: not a finding.
func (t *Tensor) view() []float32 { return t.Data() }

// View exposes view so the fixture compiles without unused warnings.
func (t *Tensor) View() int { return len(t.view()) }
