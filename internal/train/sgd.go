// Package train implements the training substrate of the reproduction: the
// SGD optimizer (a stateful parametrized object in the paper's wrapper
// terminology), the dataloader (a stateless parametrized object), the
// cross-entropy loss, and the TrainService abstraction whose serialized
// form is the core of the model provenance approach (Section 3.3).
package train

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/vec"
)

// SGDConfig holds the constructor arguments of the SGD optimizer — the
// "initialization arguments" its wrapper object records.
type SGDConfig struct {
	LR          float32 `json:"lr"`
	Momentum    float32 `json:"momentum"`
	WeightDecay float32 `json:"weight_decay"`
	// ClipNorm rescales the global gradient norm to at most this value
	// before the update when > 0, keeping early high-LR training on
	// random-init models from diverging. The clipping norm is computed in
	// a fixed serial order, so clipped training stays reproducible.
	ClipNorm float32 `json:"clip_norm,omitempty"`
}

// clipGradients rescales the trainable gradients of params so their global
// L2 norm is at most maxNorm. The norm accumulates in float64 in state-dict
// order, serially: a vector sum would reassociate it.
func clipGradients(params []nn.NamedParam, maxNorm float32) {
	var sq float64
	for _, p := range params {
		if !p.Param.Trainable {
			continue
		}
		for _, g := range p.Param.EnsureGrad().Data() {
			sq += float64(g) * float64(g)
		}
	}
	norm := float32(math.Sqrt(sq))
	if norm <= maxNorm || norm == 0 {
		return
	}
	scale := maxNorm / norm
	for _, p := range params {
		if !p.Param.Trainable {
			continue
		}
		g := p.Param.EnsureGrad().Data()
		for i := range g {
			g[i] *= scale
		}
	}
}

// SGD implements stochastic gradient descent with momentum and weight
// decay. The momentum velocities are internal state that cannot be
// recovered from the constructor arguments alone, making SGD the paper's
// canonical example of a wrapped object with a state file.
type SGD struct {
	Config SGDConfig
	// velocities maps parameter paths to momentum buffers.
	velocities map[string]*tensor.Tensor
}

// NewSGD creates an optimizer from its configuration.
func NewSGD(cfg SGDConfig) *SGD {
	return &SGD{Config: cfg, velocities: make(map[string]*tensor.Tensor)}
}

// Step applies one update to every trainable parameter of m using the
// accumulated gradients. Parameters are visited in deterministic state-dict
// order so updates are reproducible.
func (s *SGD) Step(m nn.Module) {
	params := nn.NamedParams(m)
	if s.Config.ClipNorm > 0 {
		clipGradients(params, s.Config.ClipNorm)
	}
	for _, p := range params {
		if !p.Param.Trainable {
			continue
		}
		w := p.Param.Value.Data()
		g := p.Param.EnsureGrad().Data()
		if s.Config.WeightDecay != 0 {
			vec.Axpy(g, s.Config.WeightDecay, w)
		}
		if s.Config.Momentum != 0 {
			v, ok := s.velocities[p.Path]
			if !ok {
				v = tensor.Zeros(p.Param.Value.Shape()...)
				s.velocities[p.Path] = v
			}
			vec.Momentum(w, v.Data(), g, s.Config.Momentum, s.Config.LR)
		} else {
			lr := s.Config.LR
			for i := range g {
				w[i] -= lr * g[i]
			}
		}
	}
}

// HasState reports whether the optimizer has accumulated internal state.
func (s *SGD) HasState() bool { return len(s.velocities) > 0 }

// WriteState serializes the momentum buffers. The resulting bytes are the
// wrapper object's "state file".
func (s *SGD) WriteState(w io.Writer) (int64, error) {
	sd := nn.NewStateDict()
	// Deterministic order: sort keys via a temporary index.
	keys := make([]string, 0, len(s.velocities))
	for k := range s.velocities {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		sd.Set(k, s.velocities[k])
	}
	return sd.WriteTo(w)
}

// ReadState restores momentum buffers previously written with WriteState.
func (s *SGD) ReadState(r io.Reader) error {
	sd, err := nn.ReadStateDict(r)
	if err != nil {
		return fmt.Errorf("train: reading optimizer state: %w", err)
	}
	s.velocities = make(map[string]*tensor.Tensor, sd.Len())
	for _, e := range sd.Entries() {
		s.velocities[e.Key] = e.Tensor
	}
	return nil
}

// StateEqual reports whether two optimizers have bit-identical state.
func (s *SGD) StateEqual(o *SGD) bool {
	if len(s.velocities) != len(o.velocities) {
		return false
	}
	for k, v := range s.velocities {
		ov, ok := o.velocities[k]
		if !ok || !v.Equal(ov) {
			return false
		}
	}
	return true
}

// MarshalConfig encodes the constructor arguments as JSON.
func (s *SGD) MarshalConfig() (json.RawMessage, error) {
	return json.Marshal(s.Config)
}
