package train

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func testDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.Spec{Name: "t", Images: 32, H: 16, W: 16, Classes: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func testService(t *testing.T, ds *dataset.Dataset, det bool) *ImageClassifierTrainService {
	t.Helper()
	loader, err := NewDataLoader(ds, LoaderConfig{BatchSize: 8, OutH: 16, OutW: 16, Shuffle: true, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	opt := NewSGD(SGDConfig{LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4})
	return NewImageClassifierTrainService(ServiceConfig{Epochs: 2, Seed: 13, Deterministic: det}, loader, opt)
}

func TestCrossEntropyKnownValues(t *testing.T) {
	// Uniform logits over 4 classes: loss = ln(4).
	logits := tensor.Zeros(2, 4)
	loss, grad, err := CrossEntropy(logits, []int{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(loss)-math.Log(4)) > 1e-5 {
		t.Fatalf("loss = %v, want ln(4)", loss)
	}
	// Gradient: softmax(0.25) - onehot, averaged over batch.
	if math.Abs(float64(grad.At(0, 0))-(0.25-1)/2) > 1e-5 {
		t.Fatalf("grad[0,0] = %v", grad.At(0, 0))
	}
	if math.Abs(float64(grad.At(0, 1))-0.25/2) > 1e-5 {
		t.Fatalf("grad[0,1] = %v", grad.At(0, 1))
	}
	// Gradients per row sum to ~0.
	var s float64
	for j := 0; j < 4; j++ {
		s += float64(grad.At(1, j))
	}
	if math.Abs(s) > 1e-6 {
		t.Fatalf("grad row sum = %v", s)
	}
}

func TestCrossEntropyGradientNumeric(t *testing.T) {
	rng := tensor.NewRNG(3)
	logits := tensor.Normal(rng, 0, 2, 3, 5)
	labels := []int{1, 4, 0}
	_, grad, err := CrossEntropy(logits, labels)
	if err != nil {
		t.Fatal(err)
	}
	eps := float32(1e-2)
	for i := 0; i < logits.Len(); i++ {
		orig := logits.Data()[i]
		logits.Data()[i] = orig + eps
		up, _, _ := CrossEntropy(logits, labels)
		logits.Data()[i] = orig - eps
		down, _, _ := CrossEntropy(logits, labels)
		logits.Data()[i] = orig
		num := (up - down) / (2 * eps)
		if d := math.Abs(float64(num - grad.Data()[i])); d > 1e-3 {
			t.Fatalf("grad[%d]: analytic %v numeric %v", i, grad.Data()[i], num)
		}
	}
}

func TestCrossEntropyBadInputs(t *testing.T) {
	for name, tc := range map[string]struct {
		logits *tensor.Tensor
		labels []int
	}{
		"label count mismatch": {tensor.Zeros(2, 3), []int{0}},
		"label out of range":   {tensor.Zeros(2, 3), []int{0, 3}},
		"non-2D logits":        {tensor.Zeros(6), []int{0}},
	} {
		if _, _, err := CrossEntropy(tc.logits, tc.labels); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.New([]float32{
		1, 2, 0,
		5, 1, 1,
	}, 2, 3)
	if a := Accuracy(logits, []int{1, 0}); a != 1 {
		t.Fatalf("accuracy = %v", a)
	}
	if a := Accuracy(logits, []int{0, 0}); a != 0.5 {
		t.Fatalf("accuracy = %v", a)
	}
}

func TestSGDStepBasics(t *testing.T) {
	onKernelPaths(t, func(t *testing.T) {
		l := nn.NewLinear(2, 1)
		copy(l.Weight.Value.Data(), []float32{1, 1})
		l.Weight.EnsureGrad().Data()[0] = 1
		opt := NewSGD(SGDConfig{LR: 0.1})
		opt.Step(l)
		if got := l.Weight.Value.Data()[0]; math.Abs(float64(got)-0.9) > 1e-6 {
			t.Fatalf("weight = %v, want 0.9", got)
		}
		// Untouched weight stays.
		if l.Weight.Value.Data()[1] != 1 {
			t.Fatal("zero-grad weight moved")
		}
	})
}

func TestSGDRespectsTrainableFlag(t *testing.T) {
	onKernelPaths(t, func(t *testing.T) {
		l := nn.NewLinear(2, 1)
		l.Weight.EnsureGrad().Fill(1)
		l.Bias.EnsureGrad().Fill(1)
		nn.FreezeAllExcept(l, "bias")
		before := l.Weight.Value.Clone()
		NewSGD(SGDConfig{LR: 0.5}).Step(l)
		if !l.Weight.Value.Equal(before) {
			t.Fatal("frozen weight was updated")
		}
		if l.Bias.Value.Data()[0] == 0 {
			// bias started at 0 and must have moved by -0.5.
			t.Log("ok")
		}
		if math.Abs(float64(l.Bias.Value.Data()[0])+0.5) > 1e-6 {
			t.Fatalf("bias = %v, want -0.5", l.Bias.Value.Data()[0])
		}
	})
}

func TestSGDMomentumAccumulates(t *testing.T) {
	onKernelPaths(t, func(t *testing.T) {
		l := nn.NewLinear(1, 1)
		opt := NewSGD(SGDConfig{LR: 1, Momentum: 0.5})
		l.Weight.EnsureGrad().Fill(1)
		opt.Step(l) // v=1, w=-1
		l.Weight.EnsureGrad().Fill(1)
		opt.Step(l) // v=1.5, w=-2.5
		if got := l.Weight.Value.Data()[0]; math.Abs(float64(got)+2.5) > 1e-6 {
			t.Fatalf("weight = %v, want -2.5", got)
		}
		if !opt.HasState() {
			t.Fatal("momentum optimizer should have state")
		}
	})
}

func TestSGDStateRoundTrip(t *testing.T) {
	onKernelPaths(t, func(t *testing.T) {
		l := nn.NewLinear(2, 2)
		opt := NewSGD(SGDConfig{LR: 0.1, Momentum: 0.9})
		l.Weight.EnsureGrad().Fill(0.5)
		l.Bias.EnsureGrad().Fill(0.25)
		opt.Step(l)

		var buf bytes.Buffer
		if _, err := opt.WriteState(&buf); err != nil {
			t.Fatal(err)
		}
		opt2 := NewSGD(opt.Config)
		if err := opt2.ReadState(&buf); err != nil {
			t.Fatal(err)
		}
		if !opt.StateEqual(opt2) {
			t.Fatal("state round trip not equal")
		}
		// Continuing training from restored state matches continuing original.
		l2 := nn.NewLinear(2, 2)
		copy(l2.Weight.Value.Data(), l.Weight.Value.Data())
		copy(l2.Bias.Value.Data(), l.Bias.Value.Data())
		l.Weight.EnsureGrad().Fill(0.5)
		l2.Weight.EnsureGrad().Fill(0.5)
		opt.Step(l)
		opt2.Step(l2)
		if !l.Weight.Value.Equal(l2.Weight.Value) {
			t.Fatal("restored optimizer diverged")
		}
	})
}

func TestSGDReadStateRejectsGarbage(t *testing.T) {
	opt := NewSGD(SGDConfig{})
	if err := opt.ReadState(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("expected error")
	}
}

func TestDataLoaderValidation(t *testing.T) {
	ds := testDataset(t)
	if _, err := NewDataLoader(ds, LoaderConfig{BatchSize: 0, OutH: 8, OutW: 8}); err == nil {
		t.Fatal("expected error for batch size 0")
	}
	if _, err := NewDataLoader(ds, LoaderConfig{BatchSize: 4, OutH: 0, OutW: 8}); err == nil {
		t.Fatal("expected error for bad output size")
	}
}

func TestDataLoaderBatching(t *testing.T) {
	ds := testDataset(t)
	loader, err := NewDataLoader(ds, LoaderConfig{BatchSize: 8, OutH: 8, OutW: 8, Shuffle: false})
	if err != nil {
		t.Fatal(err)
	}
	if loader.NumBatches() != 4 {
		t.Fatalf("NumBatches = %d", loader.NumBatches())
	}
	b, err := loader.Batch(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.X.Dim(0) != 8 || b.X.Dim(1) != 3 || b.X.Dim(2) != 8 {
		t.Fatalf("batch shape %v", b.X.Shape())
	}
	// Without shuffle, batch 0 holds images 0..7 in order.
	if b.Labels[0] != ds.Label(0) || b.Labels[7] != ds.Label(7) {
		t.Fatal("sequential order broken")
	}
}

func TestDataLoaderShuffleDeterministic(t *testing.T) {
	ds := testDataset(t)
	cfg := LoaderConfig{BatchSize: 8, OutH: 8, OutW: 8, Shuffle: true, Seed: 5}
	a, _ := NewDataLoader(ds, cfg)
	b, _ := NewDataLoader(ds, cfg)
	mustBatch := func(l *DataLoader, epoch, idx int) Batch {
		t.Helper()
		bt, err := l.Batch(epoch, idx)
		if err != nil {
			t.Fatal(err)
		}
		return bt
	}
	ba, bb := mustBatch(a, 1, 2), mustBatch(b, 1, 2)
	if !ba.X.Equal(bb.X) {
		t.Fatal("same seed loaders must produce identical batches")
	}
	// Different epochs give different orders.
	if mustBatch(a, 0, 0).X.Equal(mustBatch(a, 1, 0).X) {
		t.Fatal("epochs should shuffle differently")
	}
	// Shuffled differs from sequential.
	seq, _ := NewDataLoader(ds, LoaderConfig{BatchSize: 8, OutH: 8, OutW: 8, Shuffle: false})
	if mustBatch(a, 0, 0).X.Equal(mustBatch(seq, 0, 0).X) {
		t.Fatal("shuffle appears to be identity")
	}
}

func TestDataLoaderBatchOutOfRange(t *testing.T) {
	ds := testDataset(t)
	loader, _ := NewDataLoader(ds, LoaderConfig{BatchSize: 8, OutH: 8, OutW: 8})
	if _, err := loader.Batch(0, 99); err == nil {
		t.Fatal("expected error for out-of-range batch")
	}
	if _, err := loader.Batch(0, -1); err == nil {
		t.Fatal("expected error for negative batch")
	}
}

func TestDeterministicTrainingIsReproducible(t *testing.T) {
	ds := testDataset(t)
	run := func() *nn.StateDict {
		m, err := models.New(models.TinyCNNName, 4, 42)
		if err != nil {
			t.Fatal(err)
		}
		svc := testService(t, ds, true)
		if _, err := svc.Train(m); err != nil {
			t.Fatal(err)
		}
		return nn.StateDictOf(m).Clone()
	}
	a, b := run(), run()
	if !a.Equal(b) {
		t.Fatal("deterministic training must be bit-reproducible")
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	ds := testDataset(t)
	m, err := models.New(models.TinyCNNName, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	loader, _ := NewDataLoader(ds, LoaderConfig{BatchSize: 8, OutH: 16, OutW: 16, Shuffle: true, Seed: 3})
	opt := NewSGD(SGDConfig{LR: 0.1, Momentum: 0.9})
	svc := NewImageClassifierTrainService(ServiceConfig{Epochs: 8, Seed: 2, Deterministic: true}, loader, opt)
	stats, err := svc.Train(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Losses) != 8 {
		t.Fatalf("losses = %v", stats.Losses)
	}
	if stats.Losses[7] >= stats.Losses[0] {
		t.Fatalf("loss did not decrease: %v", stats.Losses)
	}
	if stats.Batches != 8*4 {
		t.Fatalf("batches = %d", stats.Batches)
	}
	if stats.TotalTime() <= 0 {
		t.Fatal("no time recorded")
	}
	if stats.ForwardTime <= 0 || stats.BackwardTime <= 0 || stats.LoadTime <= 0 {
		t.Fatalf("time buckets missing: %+v", stats)
	}
}

func TestTrainRejectsBadConfig(t *testing.T) {
	ds := testDataset(t)
	m, _ := models.New(models.TinyCNNName, 4, 1)
	loader, _ := NewDataLoader(ds, LoaderConfig{BatchSize: 8, OutH: 8, OutW: 8})
	svc := NewImageClassifierTrainService(ServiceConfig{Epochs: 0}, loader, NewSGD(SGDConfig{LR: 0.1}))
	if _, err := svc.Train(m); err == nil {
		t.Fatal("expected error for 0 epochs")
	}
	// Batch size bigger than the dataset yields no full batch.
	bigLoader, _ := NewDataLoader(ds, LoaderConfig{BatchSize: 64, OutH: 8, OutW: 8})
	svc2 := NewImageClassifierTrainService(ServiceConfig{Epochs: 1}, bigLoader, NewSGD(SGDConfig{LR: 0.1}))
	if _, err := svc2.Train(m); err == nil {
		t.Fatal("expected error for empty epoch")
	}
}

func TestBatchesPerEpochLimit(t *testing.T) {
	ds := testDataset(t)
	m, _ := models.New(models.TinyCNNName, 4, 1)
	loader, _ := NewDataLoader(ds, LoaderConfig{BatchSize: 8, OutH: 8, OutW: 8})
	svc := NewImageClassifierTrainService(ServiceConfig{Epochs: 2, BatchesPerEpoch: 2, Seed: 1, Deterministic: true}, loader, NewSGD(SGDConfig{LR: 0.1}))
	stats, err := svc.Train(m)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Batches != 4 {
		t.Fatalf("batches = %d, want 4 (2 epochs × 2 batches, the paper's simulated training)", stats.Batches)
	}
}

func TestDescribeRestoreRoundTrip(t *testing.T) {
	ds := testDataset(t)
	svc := testService(t, ds, true)

	// Give the optimizer some state first.
	m, _ := models.New(models.TinyCNNName, 4, 42)
	if _, err := svc.Train(m); err != nil {
		t.Fatal(err)
	}

	doc, opt, gotDS, err := svc.Describe()
	if err != nil {
		t.Fatal(err)
	}
	if doc.ClassName != ServiceClassName {
		t.Fatalf("class = %q", doc.ClassName)
	}
	if gotDS != ds {
		t.Fatal("Describe returned wrong dataset")
	}
	if _, ok := doc.Wrappers["dataloader"]; !ok {
		t.Fatal("missing dataloader wrapper")
	}
	if _, ok := doc.Wrappers["optimizer"]; !ok {
		t.Fatal("missing optimizer wrapper")
	}

	var stateBuf bytes.Buffer
	if _, err := opt.WriteState(&stateBuf); err != nil {
		t.Fatal(err)
	}

	// The document must survive JSON round trips (it is stored in docdb).
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var doc2 ServiceDoc
	if err := json.Unmarshal(raw, &doc2); err != nil {
		t.Fatal(err)
	}

	restored, err := Restore(doc2, ds, stateBuf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	rsvc := restored.(*ImageClassifierTrainService)
	if rsvc.Config != svc.Config {
		t.Fatalf("config round trip: %+v vs %+v", rsvc.Config, svc.Config)
	}
	if rsvc.Loader.Config != svc.Loader.Config {
		t.Fatalf("loader config round trip: %+v vs %+v", rsvc.Loader.Config, svc.Loader.Config)
	}
	if !rsvc.Optimizer.StateEqual(svc.Optimizer) {
		t.Fatal("optimizer state not restored")
	}

	// Restored service reproduces training exactly: train two equal models.
	m1, _ := models.New(models.TinyCNNName, 4, 99)
	m2, _ := models.New(models.TinyCNNName, 4, 99)
	if _, err := svc.Train(m1); err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Train(m2); err != nil {
		t.Fatal(err)
	}
	if !nn.StateDictOf(m1).Equal(nn.StateDictOf(m2)) {
		t.Fatal("restored service did not reproduce training")
	}
}

func TestRestoreErrors(t *testing.T) {
	ds := testDataset(t)
	if _, err := Restore(ServiceDoc{ClassName: "Unknown"}, ds, nil); err == nil {
		t.Fatal("expected error for unknown class")
	}
	doc := ServiceDoc{ClassName: ServiceClassName, Config: json.RawMessage(`{}`), Wrappers: map[string]WrapperDoc{}}
	if _, err := Restore(doc, ds, nil); err == nil {
		t.Fatal("expected error for missing wrappers")
	}
	doc.Wrappers["dataloader"] = WrapperDoc{ClassName: "DataLoader", Config: json.RawMessage(`{"batch_size":4,"out_h":8,"out_w":8}`)}
	if _, err := Restore(doc, ds, nil); err == nil {
		t.Fatal("expected error for missing optimizer")
	}
	doc.Wrappers["optimizer"] = WrapperDoc{ClassName: "SGD", Config: json.RawMessage(`{"lr":0.1}`)}
	if _, err := Restore(doc, ds, []byte("garbage state")); err == nil {
		t.Fatal("expected error for bad optimizer state")
	}
	if _, err := Restore(doc, ds, nil); err != nil {
		t.Fatalf("valid doc failed: %v", err)
	}
}
