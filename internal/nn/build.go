package nn

import (
	"repro/internal/tensor"
)

// Layers makes the layers that own tensors — Conv2d, BatchNorm2d and
// Linear — so that one architecture builder serves both ways a net comes
// into being. The zero value gives each tensor storage at its layer's
// defaults as the layer is made; NewConv2d, NewBatchNorm2d and NewLinear
// use it. BuildFrom hands a builder a Layers that records each tensor's
// shape and gives it no storage, and fills the finished net from a state
// dict before anyone else can see it.
type Layers struct {
	// shapes holds the shape of every tensor a recording Layers has made,
	// by the field that is to hold it; nil for the zero value.
	shapes map[**tensor.Tensor][]int
}

// param makes a trainable parameter whose values default to init. Its
// gradient tensor is allocated on demand (see EnsureGrad).
func (l Layers) param(name string, init float32, shape ...int) *Param {
	p := &Param{Name: name, Trainable: true}
	l.provide(&p.Value, init, shape)
	return p
}

// buffer makes a buffer whose values default to init.
func (l Layers) buffer(name string, init float32, shape ...int) *Buffer {
	b := &Buffer{Name: name}
	l.provide(&b.Value, init, shape)
	return b
}

// provide gives *field a tensor of the given shape filled with init, or, when
// l records, leaves *field nil and records the shape.
func (l Layers) provide(field **tensor.Tensor, init float32, shape []int) {
	switch {
	case l.shapes != nil:
		l.shapes[field] = shape
	case init == 0:
		*field = tensor.Zeros(shape...)
	default:
		*field = tensor.Full(init, shape...)
	}
}

// slot is one tensor field of a net under its state-dict key.
type slot struct {
	key   string
	field **tensor.Tensor
}

// slotsOf returns the net's tensor fields in state-dict order: per module,
// parameters then buffers, depth first.
func slotsOf(m Module) []slot {
	var out []slot
	Visit(m, func(path string, mod Module) {
		for _, p := range mod.OwnParams() {
			out = append(out, slot{joinPath(path, p.Name), &p.Value})
		}
		for _, b := range mod.OwnBuffers() {
			out = append(out, slot{joinPath(path, b.Name), &b.Value})
		}
	})
	return out
}

// BuildFrom builds a net with build and gives each of its tensors storage
// that is a copy of sd's tensor under the same key. build is handed a
// Layers that allocates nothing, and must make every layer that owns
// tensors through it; so the net's tensors come into being
// once, as those copies (tensor.CloneAll: allocated and written in one
// pass, on the worker pool when the state is large), carrying the
// sources' stamps. The rules are LoadInto's — every key of the net, with
// its shape, and no other — and are checked before any copy is made: a
// state that breaks one yields an error and no net.
func BuildFrom(sd *StateDict, build func(Layers) Module) (Module, error) {
	l := Layers{shapes: make(map[**tensor.Tensor][]int)}
	m := build(l)
	slots := slotsOf(m)
	srcs, err := sd.sources(slots, func(s slot) []int { return l.shapes[s.field] })
	if err != nil {
		return nil, err
	}
	for i, t := range tensor.CloneAll(srcs) {
		*slots[i].field = t
	}
	return m, nil
}
