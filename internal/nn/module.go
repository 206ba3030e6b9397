// Package nn implements the neural-network framework the reproduction uses
// in place of PyTorch: layers with explicit forward and backward passes,
// named parameters and buffers organized into an ordered state dict, seeded
// weight initialization, and deterministic or parallel execution modes.
//
// The framework deliberately mirrors the pieces of PyTorch the paper's
// MMlib depends on: a layer-granular state dict to diff, hash, serialize,
// and merge (baseline and parameter update approaches), and a training loop
// that is bit-reproducible when run in deterministic mode with fixed seeds
// (model provenance approach).
package nn

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/tensor"
)

// Context carries per-call execution state through forward and backward
// passes.
type Context struct {
	// Training selects training behaviour (batch statistics in BatchNorm,
	// active Dropout). When false, layers run in inference mode.
	Training bool
	// Mode selects deterministic or parallel execution of reductions.
	Mode tensor.Mode
	// RNG supplies the pseudo-randomness for stochastic layers (Dropout).
	// It must be seeded by the caller; a nil RNG disables stochastic
	// behaviour (Dropout becomes identity), keeping inference deterministic
	// by default.
	RNG *tensor.RNG
}

// Eval returns a context for deterministic inference.
func Eval() *Context {
	return &Context{Training: false, Mode: tensor.Deterministic}
}

// Train returns a context for deterministic training with the given RNG.
func Train(rng *tensor.RNG) *Context {
	return &Context{Training: true, Mode: tensor.Deterministic, RNG: rng}
}

// Param is a trainable tensor with its gradient accumulator.
type Param struct {
	// Name is the parameter's local name within its layer, e.g. "weight".
	Name string
	// Value holds the parameter data.
	Value *tensor.Tensor
	// Grad accumulates gradients; it has the same shape as Value. It is
	// nil until something needs it — the first backward pass, ZeroGrads,
	// an optimizer step — so a net that is only recovered, hashed or
	// served holds one tensor per parameter, not two. Writers go through
	// EnsureGrad.
	Grad *tensor.Tensor
	// Trainable marks whether the optimizer may update this parameter. The
	// paper's partially updated model versions freeze parameters at layer
	// granularity by clearing this flag.
	Trainable bool
}

// EnsureGrad returns the gradient accumulator, allocating it zero-filled
// on first use.
func (p *Param) EnsureGrad() *tensor.Tensor {
	if p.Grad == nil {
		p.Grad = tensor.Zeros(p.Value.Shape()...)
	}
	return p.Grad
}

// Buffer is a non-trainable tensor that is part of the model state, such as
// BatchNorm running statistics. Buffers are saved and recovered with the
// model but never touched by the optimizer.
type Buffer struct {
	Name  string
	Value *tensor.Tensor
}

// Module is a node in the model tree: either a leaf layer owning parameters
// or a container composing children. Forward must be called before Backward;
// layers cache what they need for the backward pass internally, so a module
// instance must not be shared across concurrent training steps.
type Module interface {
	// Forward computes the layer output for input x.
	Forward(ctx *Context, x *tensor.Tensor) *tensor.Tensor
	// Backward consumes the gradient w.r.t. the output and returns the
	// gradient w.r.t. the input, accumulating parameter gradients.
	Backward(ctx *Context, grad *tensor.Tensor) *tensor.Tensor
	// Children returns named sub-modules in deterministic order.
	Children() []Child
	// OwnParams returns the parameters owned directly by this module.
	OwnParams() []*Param
	// OwnBuffers returns the buffers owned directly by this module.
	OwnBuffers() []*Buffer
}

// Child is a named sub-module.
type Child struct {
	Name   string
	Module Module
}

// leafBase provides empty container methods for leaf layers to embed.
type leafBase struct{}

func (leafBase) Children() []Child     { return nil }
func (leafBase) OwnParams() []*Param   { return nil }
func (leafBase) OwnBuffers() []*Buffer { return nil }

// Visit walks the module tree depth-first in child order, invoking fn with
// each module's dotted path ("" for the root).
func Visit(m Module, fn func(path string, m Module)) {
	visit(m, "", fn)
}

func visit(m Module, path string, fn func(string, Module)) {
	fn(path, m)
	for _, c := range m.Children() {
		childPath := c.Name
		if path != "" {
			childPath = path + "." + c.Name
		}
		visit(c.Module, childPath, fn)
	}
}

// NamedParam is a parameter with its fully qualified dotted path.
type NamedParam struct {
	Path  string
	Param *Param
}

// NamedParams returns all parameters in the tree in deterministic
// depth-first order, with dotted paths such as "layer1.0.conv1.weight".
func NamedParams(m Module) []NamedParam {
	var out []NamedParam
	Visit(m, func(path string, mod Module) {
		for _, p := range mod.OwnParams() {
			out = append(out, NamedParam{Path: joinPath(path, p.Name), Param: p})
		}
	})
	return out
}

func joinPath(path, name string) string {
	if path == "" {
		return name
	}
	return path + "." + name
}

// NumParams returns the total number of scalar parameters in the tree.
func NumParams(m Module) int {
	n := 0
	for _, p := range NamedParams(m) {
		n += p.Param.Value.Len()
	}
	return n
}

// NumTrainableParams returns the number of scalar parameters whose Trainable
// flag is set. For the paper's partially updated model versions this is the
// "part. updated" column of Table 2.
func NumTrainableParams(m Module) int {
	n := 0
	for _, p := range NamedParams(m) {
		if p.Param.Trainable {
			n += p.Param.Value.Len()
		}
	}
	return n
}

// ZeroGrads clears every parameter gradient in the tree, allocating the
// ones that do not exist yet.
func ZeroGrads(m Module) {
	for _, p := range NamedParams(m) {
		if p.Param.Grad == nil {
			p.Param.EnsureGrad() // fresh tensors are already zero
		} else {
			p.Param.Grad.Zero()
		}
	}
}

// SetTrainable sets the Trainable flag on every parameter in the tree.
func SetTrainable(m Module, trainable bool) {
	for _, p := range NamedParams(m) {
		p.Param.Trainable = trainable
	}
}

// FreezeAllExcept clears Trainable everywhere and then re-enables it for
// parameters whose path starts with one of the given prefixes. This is the
// layer-granular freezing of Section 3.2 ("a subset of the model parameters
// are declared as not-trainable on a layer granularity").
func FreezeAllExcept(m Module, prefixes ...string) {
	for _, p := range NamedParams(m) {
		p.Param.Trainable = false
		for _, pre := range prefixes {
			if strings.HasPrefix(p.Path, pre) {
				p.Param.Trainable = true
				break
			}
		}
	}
}

// WrittenLayers returns, in state-dict order, the layers that own a
// trainable parameter or a buffer whose stamp is not current (see
// tensor.StampCurrent): the layers written since the save or the training
// run that last digested them. Frozen parameters do not count, since a
// forward pass that reads them through Data() stales their stamps without
// changing a byte. It is a guess at a derived model's changed layers, read
// before a save's digest pass makes every stamp current; the layer-hash
// diff decides.
func WrittenLayers(m Module) []string {
	var out []string
	Visit(m, func(path string, mod Module) {
		written := false
		for _, p := range mod.OwnParams() {
			written = written || p.Trainable && !p.Value.StampCurrent()
		}
		for _, b := range mod.OwnBuffers() {
			written = written || !b.Value.StampCurrent()
		}
		if written {
			out = append(out, path)
		}
	})
	return out
}

// TrainablePrefixes returns the sorted set of leaf-layer paths that contain
// at least one trainable parameter. It is recorded in save metadata so a
// recovered model restores the same freezing.
func TrainablePrefixes(m Module) []string {
	seen := map[string]bool{}
	for _, p := range NamedParams(m) {
		if p.Param.Trainable {
			// Strip the local parameter name to get the layer path.
			idx := strings.LastIndex(p.Path, ".")
			layer := ""
			if idx >= 0 {
				layer = p.Path[:idx]
			}
			seen[layer] = true
		}
	}
	out := make([]string, 0, len(seen))
	for k := range seen {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// CheckShapes panics with a descriptive message if got does not match want.
// Layers use it to fail fast on mis-wired architectures.
func CheckShapes(layer string, got []int, want ...int) {
	if len(got) != len(want) {
		panic(fmt.Sprintf("nn: %s: input rank %v, want %v", layer, got, want))
	}
	for i := range want {
		if want[i] >= 0 && got[i] != want[i] {
			panic(fmt.Sprintf("nn: %s: input shape %v, want %v", layer, got, want))
		}
	}
}
