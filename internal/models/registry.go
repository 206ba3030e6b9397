// Package models builds the five computer-vision architectures the paper
// evaluates (Table 2): MobileNetV2, GoogLeNet, ResNet-18, ResNet-50, and
// ResNet-152, with exactly the trainable-parameter counts of the
// torchvision implementations the paper uses (3,504,872 / 6,624,904 /
// 11,689,512 / 25,557,032 / 60,192,808) and the same partially-updated
// classifier heads (1,281,000 / 1,025,000 / 513,000 / 2,049,000 /
// 2,049,000).
//
// Architectures are identified by name in a registry. The architecture
// name together with the class count forms the Spec that the save
// approaches persist as "model code": it is sufficient to reconstruct the
// computation structure, after which parameters are restored from a saved
// state dict (baseline, parameter update) or by re-training (provenance).
package models

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Architecture names accepted by the registry.
const (
	MobileNetV2Name = "mobilenetv2"
	GoogLeNetName   = "googlenet"
	ResNet18Name    = "resnet18"
	ResNet50Name    = "resnet50"
	ResNet152Name   = "resnet152"
	TinyCNNName     = "tinycnn" // small architecture for tests and examples
)

// Spec identifies a model architecture: it is the "model code" the save
// approaches persist and the recovery path rebuilds from.
type Spec struct {
	Arch       string `json:"arch"`
	NumClasses int    `json:"num_classes"`
}

// builder constructs an uninitialized (zero-weight) instance.
type builder func(numClasses int) nn.Module

var registry = map[string]builder{
	MobileNetV2Name: buildMobileNetV2,
	GoogLeNetName:   buildGoogLeNet,
	ResNet18Name:    func(nc int) nn.Module { return buildResNet(basicBlockKind, []int{2, 2, 2, 2}, nc) },
	ResNet50Name:    func(nc int) nn.Module { return buildResNet(bottleneckKind, []int{3, 4, 6, 3}, nc) },
	ResNet152Name:   func(nc int) nn.Module { return buildResNet(bottleneckKind, []int{3, 8, 36, 3}, nc) },
	TinyCNNName:     buildTinyCNN,
}

// Names returns the registered architecture names in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// EvaluationNames returns the five Table 2 architectures in the paper's
// order (by parameter count).
func EvaluationNames() []string {
	return []string{MobileNetV2Name, GoogLeNetName, ResNet18Name, ResNet50Name, ResNet152Name}
}

// Build constructs an architecture with zero weights; parameters are
// expected to be loaded from a state dict afterwards.
func (s Spec) Build() (nn.Module, error) {
	b, ok := registry[s.Arch]
	if !ok {
		return nil, fmt.Errorf("models: unknown architecture %q", s.Arch)
	}
	nc := s.NumClasses
	if nc <= 0 {
		nc = 1000
	}
	return b(nc), nil
}

// MarshalText encodes the spec as its canonical JSON "model code".
func (s Spec) MarshalText() ([]byte, error) {
	return json.Marshal(struct {
		Arch       string `json:"arch"`
		NumClasses int    `json:"num_classes"`
	}(s))
}

// ParseSpec decodes a spec from its JSON "model code" representation.
func ParseSpec(b []byte) (Spec, error) {
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return Spec{}, fmt.Errorf("models: decoding spec: %w", err)
	}
	if s.Arch == "" {
		return Spec{}, fmt.Errorf("models: spec has no architecture")
	}
	return s, nil
}

// Instantiate builds an architecture the way a framework constructor does:
// structure plus default weight initialization. It is what creating a
// model costs, and what the paper's recovery paid before loading the state
// dict: Figure 12 attributes GoogLeNet's recovery peak to its
// "disproportional[ly] high computation time for ... initialization"
// (torchvision's scipy truncated normal), which our GoogLeNet initializer
// reproduces. Recovery here does not call it — a strict state-dict load
// overwrites every initialized weight, so core builds with Spec.Build —
// and Figure 12 times it as its own column.
func Instantiate(s Spec) (nn.Module, error) {
	m, err := s.Build()
	if err != nil {
		return nil, err
	}
	Initialize(s.Arch, m, 0)
	return m, nil
}

// New builds an architecture and initializes its weights from the seed using
// the torchvision initialization schemes (Kaiming fan-out for ResNet and
// MobileNetV2 convolutions, truncated normal for GoogLeNet — the expensive
// initializer behind GoogLeNet's recovery-time peak in Figure 12).
func New(arch string, numClasses int, seed uint64) (nn.Module, error) {
	m, err := Spec{Arch: arch, NumClasses: numClasses}.Build()
	if err != nil {
		return nil, err
	}
	Initialize(arch, m, seed)
	return m, nil
}

// Initialize (re-)initializes all weights of m in place using the
// architecture's initialization scheme and the given seed.
func Initialize(arch string, m nn.Module, seed uint64) {
	rng := tensor.NewRNG(seed)
	trunc := arch == GoogLeNetName
	nn.Visit(m, func(path string, mod nn.Module) {
		switch l := mod.(type) {
		case *nn.Conv2d:
			if trunc {
				nn.InitConvTruncNormal(rng, l)
			} else {
				nn.InitConv(rng, l)
			}
		case *nn.Linear:
			nn.InitLinear(rng, l)
		case *nn.BatchNorm2d:
			l.Weight.Value.Fill(1)
			l.Bias.Value.Zero()
			l.RunningMean.Value.Zero()
			l.RunningVar.Value.Fill(1)
		}
	})
}

// ClassifierPrefix returns the state-dict prefix of the architecture's final
// fully connected classifier — the only trainable part of the paper's
// partially updated model versions.
func ClassifierPrefix(arch string) string {
	switch arch {
	case MobileNetV2Name:
		return "classifier.1"
	case GoogLeNetName, ResNet18Name, ResNet50Name, ResNet152Name:
		return "fc"
	case TinyCNNName:
		return "fc"
	default:
		return "fc"
	}
}

// FreezeForPartialUpdate freezes every parameter except the classifier,
// reproducing the paper's partially updated model versions ("for partially
// updated model versions only the last fully connected layers" are
// retrained).
func FreezeForPartialUpdate(arch string, m nn.Module) {
	nn.FreezeAllExcept(m, ClassifierPrefix(arch))
}

// buildTinyCNN is a deliberately small architecture (2 conv layers + head)
// used by tests and examples that need fast end-to-end runs through the
// same code paths as the evaluation models.
func buildTinyCNN(numClasses int) nn.Module {
	return nn.NewNamedSequential(
		nn.Child{Name: "conv1", Module: nn.NewConv2d(3, 8, 3, 1, 1, 1, false)},
		nn.Child{Name: "bn1", Module: nn.NewBatchNorm2d(8)},
		nn.Child{Name: "relu1", Module: nn.NewReLU()},
		nn.Child{Name: "conv2", Module: nn.NewConv2d(8, 16, 3, 2, 1, 1, false)},
		nn.Child{Name: "bn2", Module: nn.NewBatchNorm2d(16)},
		nn.Child{Name: "relu2", Module: nn.NewReLU()},
		nn.Child{Name: "avgpool", Module: nn.NewGlobalAvgPool2d()},
		nn.Child{Name: "flatten", Module: nn.NewFlatten()},
		nn.Child{Name: "fc", Module: nn.NewLinear(16, numClasses)},
	)
}
