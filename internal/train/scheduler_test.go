package train

import (
	"math"
	"testing"

	"repro/internal/models"
	"repro/internal/nn"
)

func TestStepLRValidation(t *testing.T) {
	opt := NewSGD(SGDConfig{LR: 1})
	if _, err := NewStepLR(StepLRConfig{StepSize: 0, Gamma: 0.5}, opt); err == nil {
		t.Fatal("expected error for step size 0")
	}
	if _, err := NewStepLR(StepLRConfig{StepSize: 2, Gamma: 0}, opt); err == nil {
		t.Fatal("expected error for gamma 0")
	}
}

func TestStepLRDecay(t *testing.T) {
	opt := NewSGD(SGDConfig{LR: 1})
	s, err := NewStepLR(StepLRConfig{StepSize: 2, Gamma: 0.5}, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{1, 0.5, 0.5, 0.25, 0.25} // after epochs 1..5
	for i, w := range want {
		s.Step(opt)
		if math.Abs(float64(opt.Config.LR-w)) > 1e-7 {
			t.Fatalf("after epoch %d: lr = %v, want %v", i+1, opt.Config.LR, w)
		}
	}
	if s.epochCount != 5 {
		t.Fatalf("epoch count = %d", s.epochCount)
	}
}

func TestStepLRStateRoundTrip(t *testing.T) {
	opt := NewSGD(SGDConfig{LR: 1})
	s, _ := NewStepLR(StepLRConfig{StepSize: 2, Gamma: 0.5}, opt)
	for i := 0; i < 3; i++ {
		s.Step(opt)
	}
	b, err := s.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	// Restore into a scheduler created against an already-decayed
	// optimizer; the restored base LR keeps the schedule aligned.
	s2, _ := NewStepLR(StepLRConfig{StepSize: 2, Gamma: 0.5}, opt)
	if err := s2.UnmarshalState(b); err != nil {
		t.Fatal(err)
	}
	if s2.epochCount != 3 {
		t.Fatalf("restored epoch count = %d", s2.epochCount)
	}
	s.Step(opt)
	lrAfter := opt.Config.LR
	opt2 := NewSGD(SGDConfig{LR: 999}) // wrong LR; schedule must fix it
	s2.Step(opt2)
	if opt2.Config.LR != lrAfter {
		t.Fatalf("restored schedule diverged: %v vs %v", opt2.Config.LR, lrAfter)
	}
	if err := s2.UnmarshalState([]byte("junk")); err == nil {
		t.Fatal("expected error for bad state")
	}
}

// Provenance round trip with a scheduler: the restored service must resume
// the learning-rate schedule, and a reproduced training must match the
// original bit-for-bit.
func TestServiceWithSchedulerReproduces(t *testing.T) {
	ds := testDataset(t)
	mk := func() *ImageClassifierTrainService {
		loader, err := NewDataLoader(ds, LoaderConfig{BatchSize: 8, OutH: 16, OutW: 16, Shuffle: true, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		opt := NewSGD(SGDConfig{LR: 0.1, Momentum: 0.9})
		svc := NewImageClassifierTrainService(ServiceConfig{Epochs: 4, Seed: 13, Deterministic: true}, loader, opt)
		sched, err := NewStepLR(StepLRConfig{StepSize: 2, Gamma: 0.1}, opt)
		if err != nil {
			t.Fatal(err)
		}
		svc.Scheduler = sched
		return svc
	}

	// Train a model; capture pre-training provenance.
	svc := mk()
	doc, _, _, err := svc.Describe()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := doc.Wrappers["scheduler"]; !ok {
		t.Fatal("scheduler wrapper missing from provenance document")
	}
	m1, _ := models.New(models.TinyCNNName, 4, 42)
	if _, err := svc.Train(m1); err != nil {
		t.Fatal(err)
	}
	// The schedule decayed the LR during training.
	if svc.Optimizer.Config.LR >= 0.1 {
		t.Fatalf("scheduler did not decay LR: %v", svc.Optimizer.Config.LR)
	}

	// Restore from the document and reproduce.
	restored, err := Restore(doc, ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	rsvc := restored.(*ImageClassifierTrainService)
	if rsvc.Scheduler == nil {
		t.Fatal("scheduler not restored")
	}
	m2, _ := models.New(models.TinyCNNName, 4, 42)
	if _, err := restored.Train(m2); err != nil {
		t.Fatal(err)
	}
	if !nn.StateDictOf(m1).Equal(nn.StateDictOf(m2)) {
		t.Fatal("scheduler-driven training not reproduced")
	}
}

// A scheduler mid-schedule (non-zero epoch counter) must resume, not
// restart: this is why the scheduler state is part of the provenance.
func TestSchedulerMidScheduleProvenance(t *testing.T) {
	ds := testDataset(t)
	loader, _ := NewDataLoader(ds, LoaderConfig{BatchSize: 8, OutH: 16, OutW: 16, Shuffle: true, Seed: 3})
	opt := NewSGD(SGDConfig{LR: 0.1})
	svc := NewImageClassifierTrainService(ServiceConfig{Epochs: 2, Seed: 5, Deterministic: true}, loader, opt)
	sched, _ := NewStepLR(StepLRConfig{StepSize: 1, Gamma: 0.5}, opt)
	svc.Scheduler = sched

	// First training window advances the schedule.
	warm, _ := models.New(models.TinyCNNName, 4, 1)
	if _, err := svc.Train(warm); err != nil {
		t.Fatal(err)
	}
	if sched.epochCount != 2 {
		t.Fatalf("epoch count = %d", sched.epochCount)
	}

	// Provenance captured now must reproduce the SECOND window exactly.
	doc, _, _, err := svc.Describe()
	if err != nil {
		t.Fatal(err)
	}
	m1, _ := models.New(models.TinyCNNName, 4, 2)
	if _, err := svc.Train(m1); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(doc, ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	m2, _ := models.New(models.TinyCNNName, 4, 2)
	if _, err := restored.Train(m2); err != nil {
		t.Fatal(err)
	}
	if !nn.StateDictOf(m1).Equal(nn.StateDictOf(m2)) {
		t.Fatal("mid-schedule training not reproduced (scheduler state lost)")
	}
}
