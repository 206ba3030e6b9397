package models

import (
	"repro/internal/nn"
)

// GoogLeNet construction following torchvision (batch-norm variant, no
// auxiliary classifiers, matching the 6,624,904-parameter configuration of
// Table 2). Note torchvision's documented quirk: the "5×5" Inception branch
// actually uses a 3×3 convolution; we reproduce it to match the parameter
// count of the implementation the paper evaluated.

// basicConv2d is torchvision's BasicConv2d: bias-free conv followed by
// batch norm (the ReLU is applied by the caller's sequencing here).
func basicConv2d(l nn.Layers, in, out, kernel, stride, padding int) nn.Module {
	return nn.NewNamedSequential(
		nn.Child{Name: "conv", Module: l.Conv2d(in, out, kernel, stride, padding, 1, false)},
		nn.Child{Name: "bn", Module: l.BatchNorm2d(out)},
		nn.Child{Name: "relu", Module: nn.NewReLU()},
	)
}

// inception builds one Inception block with the four torchvision branches.
func inception(l nn.Layers, in, ch1x1, ch3x3red, ch3x3, ch5x5red, ch5x5, poolProj int) nn.Module {
	branch1 := basicConv2d(l, in, ch1x1, 1, 1, 0)
	branch2 := nn.NewSequential(
		basicConv2d(l, in, ch3x3red, 1, 1, 0),
		basicConv2d(l, ch3x3red, ch3x3, 3, 1, 1),
	)
	branch3 := nn.NewSequential(
		basicConv2d(l, in, ch5x5red, 1, 1, 0),
		basicConv2d(l, ch5x5red, ch5x5, 3, 1, 1), // torchvision quirk: 3×3
	)
	branch4 := nn.NewSequential(
		nn.NewMaxPool2d(3, 1, 1, true),
		basicConv2d(l, in, poolProj, 1, 1, 0),
	)
	return nn.NewConcat(branch1, branch2, branch3, branch4)
}

func buildGoogLeNet(l nn.Layers, numClasses int) nn.Module {
	return nn.NewNamedSequential(
		nn.Child{Name: "conv1", Module: basicConv2d(l, 3, 64, 7, 2, 3)},
		nn.Child{Name: "maxpool1", Module: nn.NewMaxPool2d(3, 2, 0, true)},
		nn.Child{Name: "conv2", Module: basicConv2d(l, 64, 64, 1, 1, 0)},
		nn.Child{Name: "conv3", Module: basicConv2d(l, 64, 192, 3, 1, 1)},
		nn.Child{Name: "maxpool2", Module: nn.NewMaxPool2d(3, 2, 0, true)},
		nn.Child{Name: "inception3a", Module: inception(l, 192, 64, 96, 128, 16, 32, 32)},
		nn.Child{Name: "inception3b", Module: inception(l, 256, 128, 128, 192, 32, 96, 64)},
		nn.Child{Name: "maxpool3", Module: nn.NewMaxPool2d(3, 2, 0, true)},
		nn.Child{Name: "inception4a", Module: inception(l, 480, 192, 96, 208, 16, 48, 64)},
		nn.Child{Name: "inception4b", Module: inception(l, 512, 160, 112, 224, 24, 64, 64)},
		nn.Child{Name: "inception4c", Module: inception(l, 512, 128, 128, 256, 24, 64, 64)},
		nn.Child{Name: "inception4d", Module: inception(l, 512, 112, 144, 288, 32, 64, 64)},
		nn.Child{Name: "inception4e", Module: inception(l, 528, 256, 160, 320, 32, 128, 128)},
		nn.Child{Name: "maxpool4", Module: nn.NewMaxPool2d(2, 2, 0, true)},
		nn.Child{Name: "inception5a", Module: inception(l, 832, 256, 160, 320, 32, 128, 128)},
		nn.Child{Name: "inception5b", Module: inception(l, 832, 384, 192, 384, 48, 128, 128)},
		nn.Child{Name: "avgpool", Module: nn.NewGlobalAvgPool2d()},
		nn.Child{Name: "flatten", Module: nn.NewFlatten()},
		nn.Child{Name: "dropout", Module: nn.NewDropout(0.2)},
		nn.Child{Name: "fc", Module: l.Linear(1024, numClasses)},
	)
}
