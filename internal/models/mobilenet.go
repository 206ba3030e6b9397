package models

import (
	"strconv"

	"repro/internal/nn"
)

// MobileNetV2 construction following torchvision: a strided stem, 17
// inverted-residual blocks, a 1×1 expansion to 1280 channels, global
// average pooling, and a dropout+linear classifier.

// convBNReLU6 is the ConvBNReLU fragment of torchvision's MobileNetV2.
func convBNReLU6(l nn.Layers, in, out, kernel, stride, groups int) nn.Module {
	padding := (kernel - 1) / 2
	return nn.NewNamedSequential(
		nn.Child{Name: "conv", Module: l.Conv2d(in, out, kernel, stride, padding, groups, false)},
		nn.Child{Name: "bn", Module: l.BatchNorm2d(out)},
		nn.Child{Name: "relu6", Module: nn.NewReLU6()},
	)
}

// invertedResidual builds one MobileNetV2 block: optional 1×1 expansion,
// 3×3 depthwise convolution, and a linear 1×1 projection, with a residual
// connection when the block preserves shape.
func invertedResidual(l nn.Layers, in, out, stride, expand int) nn.Module {
	hidden := in * expand
	var children []nn.Child
	idx := 0
	add := func(m nn.Module) {
		children = append(children, nn.Child{Name: strconv.Itoa(idx), Module: m})
		idx++
	}
	if expand != 1 {
		add(convBNReLU6(l, in, hidden, 1, 1, 1)) // pointwise expansion
	}
	add(convBNReLU6(l, hidden, hidden, 3, stride, hidden)) // depthwise
	add(l.Conv2d(hidden, out, 1, 1, 0, 1, false))          // linear projection
	add(l.BatchNorm2d(out))
	body := nn.NewNamedSequential(children...)
	if stride == 1 && in == out {
		return nn.NewResidual(body, nil, nil)
	}
	return body
}

func buildMobileNetV2(l nn.Layers, numClasses int) nn.Module {
	// (expansion t, output channels c, repeats n, first stride s)
	cfg := [][4]int{
		{1, 16, 1, 1},
		{6, 24, 2, 2},
		{6, 32, 3, 2},
		{6, 64, 4, 2},
		{6, 96, 3, 1},
		{6, 160, 3, 2},
		{6, 320, 1, 1},
	}
	features := nn.NewSequential(convBNReLU6(l, 3, 32, 3, 2, 1))
	in := 32
	for _, c := range cfg {
		t, out, n, s := c[0], c[1], c[2], c[3]
		for i := 0; i < n; i++ {
			stride := 1
			if i == 0 {
				stride = s
			}
			features.Append(invertedResidual(l, in, out, stride, t))
			in = out
		}
	}
	features.Append(convBNReLU6(l, in, 1280, 1, 1, 1))

	classifier := nn.NewSequential(
		nn.NewDropout(0.2),
		l.Linear(1280, numClasses),
	)
	return nn.NewNamedSequential(
		nn.Child{Name: "features", Module: features},
		nn.Child{Name: "avgpool", Module: nn.NewGlobalAvgPool2d()},
		nn.Child{Name: "flatten", Module: nn.NewFlatten()},
		nn.Child{Name: "classifier", Module: classifier},
	)
}
