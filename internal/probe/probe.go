// Package probe implements the model verification probing tool of the
// paper (Section 2.4): it executes a model's forward and backward pass on
// fixed probe data and records layer-wise fingerprints — the output tensor
// hash plus the gradient hash of every parameter (gradients are produced
// per layer, so they give a layer-granular view of the backward pass).
// Running the probe twice on one machine checks that inference and training
// are reproducible there; saving the summary and re-running the probe on
// another machine checks reproducibility across machines, exactly like the
// save/load workflow of the tool the paper describes.
package probe

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"repro/internal/environment"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/train"
)

// Config fixes the probe input so runs are comparable.
type Config struct {
	// Seed generates the probe input batch and the training-mode RNG.
	Seed uint64 `json:"seed"`
	// BatchSize, H, W, and Classes shape the synthetic probe batch.
	BatchSize int `json:"batch_size"`
	H         int `json:"h"`
	W         int `json:"w"`
	Classes   int `json:"classes"`
	// Deterministic selects the execution mode. Probing a model in
	// parallel mode demonstrates the non-reproducibility the paper
	// attributes to non-deterministic kernels.
	Deterministic bool `json:"deterministic"`
}

// DefaultConfig returns a probe configuration suitable for the evaluation
// models (3×32×32 inputs, 1000 classes).
func DefaultConfig() Config {
	return Config{Seed: 1, BatchSize: 2, H: 32, W: 32, Classes: 1000, Deterministic: true}
}

// Summary is the recorded fingerprint of one probe run. Summaries are
// JSON-serializable so they can be saved on one machine and verified on
// another.
type Summary struct {
	Config      Config           `json:"config"`
	Environment environment.Info `json:"environment"`
	// InputHash identifies the probe batch (a function of Config only, but
	// recorded to catch implementation drift).
	InputHash string `json:"input_hash"`
	// ForwardHash is the hash of the model output tensor.
	ForwardHash string `json:"forward_hash"`
	// Loss holds the IEEE-754 bits of the probe loss, compared exactly.
	LossBits uint32 `json:"loss_bits"`
	// GradHashes holds the per-parameter gradient hashes in state-dict
	// order — the layer-wise backward fingerprint.
	GradHashes []nn.KeyHash `json:"grad_hashes"`
}

// Run executes one probe pass over m and returns its summary. The model's
// parameters are not modified (gradients are zeroed afterwards); BatchNorm
// buffers are snapshotted and restored so probing is side-effect free. A
// failure to restore the buffers surfaces as an error: a silently mutated
// model would poison every hash computed after the probe.
func Run(m nn.Module, cfg Config) (summary Summary, err error) {
	if cfg.BatchSize <= 0 || cfg.H <= 0 || cfg.W <= 0 || cfg.Classes <= 0 {
		return Summary{}, fmt.Errorf("probe: invalid config %+v", cfg)
	}
	// Snapshot buffers (training-mode BatchNorm updates running stats).
	snapshot := nn.StateDictOf(m).Clone()
	defer func() {
		if rerr := snapshot.LoadInto(m); rerr != nil && err == nil {
			summary, err = Summary{}, fmt.Errorf("probe: restoring buffers: %w", rerr)
		}
	}()

	rng := tensor.NewRNG(cfg.Seed)
	x := tensor.Uniform(rng, 0, 1, cfg.BatchSize, 3, cfg.H, cfg.W)
	labels := make([]int, cfg.BatchSize)
	for i := range labels {
		labels[i] = rng.Intn(cfg.Classes)
	}

	mode := tensor.Parallel
	if cfg.Deterministic {
		mode = tensor.Deterministic
	}
	ctx := &nn.Context{Training: true, Mode: mode, RNG: tensor.NewRNG(cfg.Seed + 1)}

	out := m.Forward(ctx, x)
	if out.NDim() != 2 || out.Dim(1) != cfg.Classes {
		return Summary{}, fmt.Errorf("probe: model output %v does not match %d classes", out.Shape(), cfg.Classes)
	}
	loss, grad, err := train.CrossEntropy(out, labels)
	if err != nil {
		return Summary{}, err
	}
	nn.ZeroGrads(m)
	m.Backward(ctx, grad)

	s := Summary{
		Config:      cfg,
		Environment: environment.Capture(),
		InputHash:   x.Hash(),
		ForwardHash: out.Hash(),
		LossBits:    float32bits(loss),
	}
	for _, p := range nn.NamedParams(m) {
		s.GradHashes = append(s.GradHashes, nn.KeyHash{Key: p.Path, Hash: p.Param.EnsureGrad().Hash()})
	}
	nn.ZeroGrads(m)
	return s, nil
}

// Difference describes one layer-wise divergence between two probe runs.
type Difference struct {
	Kind string `json:"kind"` // "input", "forward", "loss", or "grad"
	Key  string `json:"key,omitempty"`
}

func (d Difference) String() string {
	if d.Key != "" {
		return d.Kind + ":" + d.Key
	}
	return d.Kind
}

// Compare returns the layer-wise differences between two summaries. An
// empty result means the two runs were bit-identical — the model is
// reproducible across those two executions (and machines, if the summaries
// come from different hosts).
func Compare(a, b Summary) []Difference {
	var out []Difference
	if a.InputHash != b.InputHash {
		out = append(out, Difference{Kind: "input"})
	}
	if a.ForwardHash != b.ForwardHash {
		out = append(out, Difference{Kind: "forward"})
	}
	if a.LossBits != b.LossBits {
		out = append(out, Difference{Kind: "loss"})
	}
	ag := map[string]string{}
	for _, kh := range a.GradHashes {
		ag[kh.Key] = kh.Hash
	}
	for _, kh := range b.GradHashes {
		if got, ok := ag[kh.Key]; !ok || got != kh.Hash {
			out = append(out, Difference{Kind: "grad", Key: kh.Key})
		}
	}
	if len(a.GradHashes) != len(b.GradHashes) {
		out = append(out, Difference{Kind: "grad", Key: "(count mismatch)"})
	}
	return out
}

// Verify runs the probe twice and reports whether the model's inference and
// training are reproducible in the current setup, together with any
// layer-wise differences. This is the two-execution check of Section 2.4.
func Verify(m nn.Module, cfg Config) (bool, []Difference, error) {
	first, err := Run(m, cfg)
	if err != nil {
		return false, nil, err
	}
	second, err := Run(m, cfg)
	if err != nil {
		return false, nil, err
	}
	diffs := Compare(first, second)
	return len(diffs) == 0, diffs, nil
}

// Save writes the summary as JSON, for cross-machine verification.
func (s Summary) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Load reads a summary previously written with Save.
func Load(r io.Reader) (Summary, error) {
	var s Summary
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return Summary{}, fmt.Errorf("probe: decoding summary: %w", err)
	}
	return s, nil
}

func float32bits(f float32) uint32 {
	return math.Float32bits(f)
}
