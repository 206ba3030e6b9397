package train

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/models"
	"repro/internal/nn"
)

// Replay compatibility: MPA recovers a model by re-running its training, so
// a model saved by any earlier build must still replay to the hash it
// recorded. These constants were taken from the build before the blocked
// convolution kernel; a kernel change that moves one bit of a deterministic
// step fails here, not in a user's recovery. Each step runs on the AVX2
// kernels and on their scalar twins: a model trained on one CPU must
// replay on another, whichever kernels each has.
//
// The step has the benchmark's shape (mixed-adaptive-local's trainOnce):
// CO-512 at scale 0.04, batch 2 at 32×32, SGD lr 0.001, momentum 0.9,
// clip 1, one deterministic batch.
func TestDeterministicStepGolden(t *testing.T) {
	cases := []struct {
		arch string
		want string
	}{
		{models.MobileNetV2Name, "f6bc8b878e1eb7988431863a2f76155cb726bb2ffabc43a9cac8a5799f380d2b"},
		{models.ResNet18Name, "4953bf55f70747b892be26613526f770cdded318b5288981d6d736b64b6011ac"},
	}
	ds, err := dataset.Generate(dataset.CO512(0.04))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		t.Run(tc.arch, func(t *testing.T) {
			onKernelPaths(t, func(t *testing.T) {
				net, err := models.New(tc.arch, 1000, 7)
				if err != nil {
					t.Fatal(err)
				}
				loader, err := NewDataLoader(ds, LoaderConfig{BatchSize: 2, OutH: 32, OutW: 32, Shuffle: true, Seed: 500})
				if err != nil {
					t.Fatal(err)
				}
				svc := NewImageClassifierTrainService(
					ServiceConfig{Epochs: 1, BatchesPerEpoch: 1, Seed: 500, Deterministic: true},
					loader, NewSGD(SGDConfig{LR: 0.001, Momentum: 0.9, ClipNorm: 1}))
				if _, err := svc.Train(net); err != nil {
					t.Fatal(err)
				}
				if got := nn.StateDictOf(net).Hash(); got != tc.want {
					t.Fatalf("state dict hash after one deterministic step = %s, want %s", got, tc.want)
				}
			})
		})
	}
}
