package models

import (
	"strconv"

	"repro/internal/nn"
)

// ResNet construction following torchvision: a 7×7 stem, four stages of
// basic blocks (ResNet-18) or bottleneck blocks (ResNet-50/152), global
// average pooling, and a fully connected classifier.

type blockKind int

const (
	basicBlockKind blockKind = iota
	bottleneckKind
)

func (k blockKind) expansion() int {
	if k == bottleneckKind {
		return 4
	}
	return 1
}

// basicBlock: 3×3 conv – bn – relu – 3×3 conv – bn, residual add, relu.
func basicBlock(l nn.Layers, inplanes, planes, stride int) nn.Module {
	body := nn.NewNamedSequential(
		nn.Child{Name: "conv1", Module: l.Conv2d(inplanes, planes, 3, stride, 1, 1, false)},
		nn.Child{Name: "bn1", Module: l.BatchNorm2d(planes)},
		nn.Child{Name: "relu1", Module: nn.NewReLU()},
		nn.Child{Name: "conv2", Module: l.Conv2d(planes, planes, 3, 1, 1, 1, false)},
		nn.Child{Name: "bn2", Module: l.BatchNorm2d(planes)},
	)
	var shortcut nn.Module
	if stride != 1 || inplanes != planes {
		shortcut = nn.NewNamedSequential(
			nn.Child{Name: "conv", Module: l.Conv2d(inplanes, planes, 1, stride, 0, 1, false)},
			nn.Child{Name: "bn", Module: l.BatchNorm2d(planes)},
		)
	}
	return nn.NewResidual(body, shortcut, nn.NewReLU())
}

// bottleneck: 1×1 reduce – 3×3 – 1×1 expand (×4), residual add, relu.
func bottleneck(l nn.Layers, inplanes, planes, stride int) nn.Module {
	out := planes * 4
	body := nn.NewNamedSequential(
		nn.Child{Name: "conv1", Module: l.Conv2d(inplanes, planes, 1, 1, 0, 1, false)},
		nn.Child{Name: "bn1", Module: l.BatchNorm2d(planes)},
		nn.Child{Name: "relu1", Module: nn.NewReLU()},
		nn.Child{Name: "conv2", Module: l.Conv2d(planes, planes, 3, stride, 1, 1, false)},
		nn.Child{Name: "bn2", Module: l.BatchNorm2d(planes)},
		nn.Child{Name: "relu2", Module: nn.NewReLU()},
		nn.Child{Name: "conv3", Module: l.Conv2d(planes, out, 1, 1, 0, 1, false)},
		nn.Child{Name: "bn3", Module: l.BatchNorm2d(out)},
	)
	var shortcut nn.Module
	if stride != 1 || inplanes != out {
		shortcut = nn.NewNamedSequential(
			nn.Child{Name: "conv", Module: l.Conv2d(inplanes, out, 1, stride, 0, 1, false)},
			nn.Child{Name: "bn", Module: l.BatchNorm2d(out)},
		)
	}
	return nn.NewResidual(body, shortcut, nn.NewReLU())
}

func buildResNet(l nn.Layers, kind blockKind, layers []int, numClasses int) nn.Module {
	makeBlock := basicBlock
	if kind == bottleneckKind {
		makeBlock = bottleneck
	}
	inplanes := 64
	stage := func(planes, blocks, stride int) nn.Module {
		var children []nn.Child
		for i := 0; i < blocks; i++ {
			s := 1
			if i == 0 {
				s = stride
			}
			children = append(children, nn.Child{Name: strconv.Itoa(i), Module: makeBlock(l, inplanes, planes, s)})
			inplanes = planes * kind.expansion()
		}
		return nn.NewNamedSequential(children...)
	}

	children := []nn.Child{
		{Name: "conv1", Module: l.Conv2d(3, 64, 7, 2, 3, 1, false)},
		{Name: "bn1", Module: l.BatchNorm2d(64)},
		{Name: "relu", Module: nn.NewReLU()},
		{Name: "maxpool", Module: nn.NewMaxPool2d(3, 2, 1, false)},
		{Name: "layer1", Module: stage(64, layers[0], 1)},
		{Name: "layer2", Module: stage(128, layers[1], 2)},
		{Name: "layer3", Module: stage(256, layers[2], 2)},
		{Name: "layer4", Module: stage(512, layers[3], 2)},
		{Name: "avgpool", Module: nn.NewGlobalAvgPool2d()},
		{Name: "flatten", Module: nn.NewFlatten()},
		{Name: "fc", Module: l.Linear(512*kind.expansion(), numClasses)},
	}
	return nn.NewNamedSequential(children...)
}
