package train

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Service is the paper's TrainService interface: "Every TrainService
// defines the logic to train a given model in its train method and
// references all objects that are relevant for it wrapped in wrapper
// objects."
type Service interface {
	// Train updates m in place and returns timing/loss statistics.
	Train(m nn.Module) (Stats, error)
	// Describe serializes the service for provenance storage.
	Describe() (ServiceDoc, *SGD, *dataset.Dataset, error)
}

// Stats reports what happened during a training run. The three time buckets
// are the split of the paper's Figure 13: time to prepare input batches
// ("load data to the GPU" in the paper's setting), forward pass, and
// backward pass. Optimizer steps are reported separately.
type Stats struct {
	Epochs       int
	Batches      int
	LoadTime     time.Duration
	ForwardTime  time.Duration
	BackwardTime time.Duration
	StepTime     time.Duration
	// Losses holds the mean loss of each epoch.
	Losses []float32
	// FinalLoss is the last batch's loss.
	FinalLoss float32
}

// TotalTime returns the sum of all time buckets.
func (s Stats) TotalTime() time.Duration {
	return s.LoadTime + s.ForwardTime + s.BackwardTime + s.StepTime
}

// ServiceConfig holds the hyperparameters of an ImageClassifierTrainService
// — the "overall training logic" configuration of Section 3.3.
type ServiceConfig struct {
	Epochs          int    `json:"epochs"`
	BatchesPerEpoch int    `json:"batches_per_epoch"` // 0 = all full batches
	Seed            uint64 `json:"seed"`
	Deterministic   bool   `json:"deterministic"`
}

// ImageClassifierTrainService trains an image classifier with SGD and
// cross-entropy — the Go analogue of the paper's ImageNetTrainService
// (Figure 5). It references a stateless dataloader wrapper and a stateful
// optimizer wrapper.
type ImageClassifierTrainService struct {
	Config    ServiceConfig
	Loader    *DataLoader
	Optimizer *SGD
	// Scheduler optionally decays the learning rate per epoch. It is a
	// second stateful wrapped object: its state is captured with the
	// provenance so reproduced trainings resume the schedule correctly.
	Scheduler *StepLR
}

// ServiceClassName identifies the service class in provenance documents.
const ServiceClassName = "ImageClassifierTrainService"

// NewImageClassifierTrainService assembles a training service.
func NewImageClassifierTrainService(cfg ServiceConfig, loader *DataLoader, opt *SGD) *ImageClassifierTrainService {
	return &ImageClassifierTrainService{Config: cfg, Loader: loader, Optimizer: opt}
}

// Train implements Service. Given the same initial model state, dataset,
// configuration, and seeds, a deterministic run reproduces the exact same
// updated model — the property the model provenance approach relies on.
func (s *ImageClassifierTrainService) Train(m nn.Module) (Stats, error) {
	if s.Config.Epochs <= 0 {
		return Stats{}, fmt.Errorf("train: %d epochs", s.Config.Epochs)
	}
	mode := tensor.Parallel
	if s.Config.Deterministic {
		mode = tensor.Deterministic
	}
	ctx := &nn.Context{Training: true, Mode: mode, RNG: tensor.NewRNG(s.Config.Seed)}

	var st Stats
	st.Epochs = s.Config.Epochs
	batches := s.Loader.NumBatches()
	if s.Config.BatchesPerEpoch > 0 && s.Config.BatchesPerEpoch < batches {
		batches = s.Config.BatchesPerEpoch
	}
	if batches == 0 {
		return Stats{}, fmt.Errorf("train: dataset of %d images yields no full batch of %d",
			s.Loader.Dataset.Len(), s.Loader.Config.BatchSize)
	}

	for epoch := 0; epoch < s.Config.Epochs; epoch++ {
		var epochLoss float64
		for b := 0; b < batches; b++ {
			t0 := time.Now()
			batch, err := s.Loader.Batch(epoch, b)
			if err != nil {
				return Stats{}, err
			}
			t1 := time.Now()
			logits := m.Forward(ctx, batch.X)
			t2 := time.Now()
			loss, grad, err := CrossEntropy(logits, batch.Labels)
			if err != nil {
				return Stats{}, err
			}
			nn.ZeroGrads(m)
			m.Backward(ctx, grad)
			t3 := time.Now()
			s.Optimizer.Step(m)
			t4 := time.Now()

			st.LoadTime += t1.Sub(t0)
			st.ForwardTime += t2.Sub(t1)
			st.BackwardTime += t3.Sub(t2)
			st.StepTime += t4.Sub(t3)
			st.FinalLoss = loss
			epochLoss += float64(loss)
			st.Batches++
		}
		st.Losses = append(st.Losses, float32(epochLoss/float64(batches)))
		if s.Scheduler != nil {
			s.Scheduler.Step(s.Optimizer)
		}
	}
	return st, nil
}

// WrapperDoc is the serialized form of a wrapper object (Section 3.3): the
// wrapped object's class name, import location, constructor arguments, and
// — for stateful objects — a reference to a state file.
type WrapperDoc struct {
	ClassName string          `json:"class_name"`
	Import    string          `json:"import"`
	Config    json.RawMessage `json:"config"`
	// StateFileRef references the state file in the file store; empty for
	// stateless objects. The reference is filled in by the save service.
	StateFileRef string `json:"state_file_ref,omitempty"`
	// StateFileHash is the content hash of the state file, recorded by the
	// save service from the hash the file store computes while writing.
	StateFileHash string `json:"state_file_hash,omitempty"`
	// StateInline embeds small internal state directly in the document
	// instead of a separate state file (an optimization for states of a
	// few bytes, like a scheduler's epoch counter).
	StateInline json.RawMessage `json:"state_inline,omitempty"`
	// Refs names other wrapped objects this object's constructor receives.
	Refs map[string]string `json:"refs,omitempty"`
}

// ServiceDoc is the serialized form of a TrainService: its class name, its
// hyperparameter configuration, and its wrapped objects. The dataset
// reference is filled in by the save service that archives the dataset.
type ServiceDoc struct {
	ClassName  string                `json:"class_name"`
	Config     json.RawMessage       `json:"config"`
	Wrappers   map[string]WrapperDoc `json:"wrappers"`
	DatasetRef string                `json:"dataset_ref,omitempty"`
}

// maxDocSeed bounds the seeds a provenance document can record: document
// stores carry JSON numbers as float64, which rounds integers from 2^53
// up, and a rounded seed replays a different training run — the model
// could be saved but never recovered.
const maxDocSeed = 1 << 53

func checkDocSeed(what string, seed uint64) error {
	if seed >= maxDocSeed {
		return fmt.Errorf("train: %s seed %d cannot be replayed: provenance documents record numbers as float64, use a seed below 2^53", what, seed)
	}
	return nil
}

// Describe implements Service. It returns the provenance document together
// with the live optimizer (whose state the caller persists to a state file)
// and the dataset (which the caller archives). A seed the document cannot
// record exactly is an error here, before any training is spent on it.
func (s *ImageClassifierTrainService) Describe() (ServiceDoc, *SGD, *dataset.Dataset, error) {
	if err := checkDocSeed("service", s.Config.Seed); err != nil {
		return ServiceDoc{}, nil, nil, err
	}
	if err := checkDocSeed("dataloader", s.Loader.Config.Seed); err != nil {
		return ServiceDoc{}, nil, nil, err
	}
	cfg, err := json.Marshal(s.Config)
	if err != nil {
		return ServiceDoc{}, nil, nil, err
	}
	loaderCfg, err := s.Loader.MarshalConfig()
	if err != nil {
		return ServiceDoc{}, nil, nil, err
	}
	optCfg, err := s.Optimizer.MarshalConfig()
	if err != nil {
		return ServiceDoc{}, nil, nil, err
	}
	doc := ServiceDoc{
		ClassName: ServiceClassName,
		Config:    cfg,
		Wrappers: map[string]WrapperDoc{
			"dataloader": {
				ClassName: "DataLoader",
				Import:    "repro/internal/train",
				Config:    loaderCfg,
				Refs:      map[string]string{"dataset": "dataset_ref"},
			},
			"optimizer": {
				ClassName: "SGD",
				Import:    "repro/internal/train",
				Config:    optCfg,
			},
		},
	}
	if s.Scheduler != nil {
		schedCfg, err := s.Scheduler.MarshalConfig()
		if err != nil {
			return ServiceDoc{}, nil, nil, err
		}
		state, err := s.Scheduler.MarshalState()
		if err != nil {
			return ServiceDoc{}, nil, nil, err
		}
		doc.Wrappers["scheduler"] = WrapperDoc{
			ClassName:   "StepLR",
			Import:      "repro/internal/train",
			Config:      schedCfg,
			StateInline: state,
			Refs:        map[string]string{"optimizer": "optimizer"},
		}
	}
	return doc, s.Optimizer, s.Loader.Dataset, nil
}

// Restore rebuilds a service from its provenance document, the recovered
// dataset, and the optimizer state bytes (nil when the optimizer had no
// accumulated state).
func Restore(doc ServiceDoc, ds *dataset.Dataset, optState []byte) (Service, error) {
	if doc.ClassName != ServiceClassName {
		return nil, fmt.Errorf("train: unknown service class %q", doc.ClassName)
	}
	var cfg ServiceConfig
	if err := json.Unmarshal(doc.Config, &cfg); err != nil {
		return nil, fmt.Errorf("train: decoding service config: %w", err)
	}
	lw, ok := doc.Wrappers["dataloader"]
	if !ok {
		return nil, fmt.Errorf("train: provenance document missing dataloader wrapper")
	}
	var lcfg LoaderConfig
	if err := json.Unmarshal(lw.Config, &lcfg); err != nil {
		return nil, fmt.Errorf("train: decoding loader config: %w", err)
	}
	loader, err := NewDataLoader(ds, lcfg)
	if err != nil {
		return nil, err
	}
	ow, ok := doc.Wrappers["optimizer"]
	if !ok {
		return nil, fmt.Errorf("train: provenance document missing optimizer wrapper")
	}
	var ocfg SGDConfig
	if err := json.Unmarshal(ow.Config, &ocfg); err != nil {
		return nil, fmt.Errorf("train: decoding optimizer config: %w", err)
	}
	opt := NewSGD(ocfg)
	if len(optState) > 0 {
		if err := opt.ReadState(bytesReader(optState)); err != nil {
			return nil, err
		}
	}
	svc := NewImageClassifierTrainService(cfg, loader, opt)
	if sw, ok := doc.Wrappers["scheduler"]; ok {
		var scfg StepLRConfig
		if err := json.Unmarshal(sw.Config, &scfg); err != nil {
			return nil, fmt.Errorf("train: decoding scheduler config: %w", err)
		}
		sched, err := NewStepLR(scfg, opt)
		if err != nil {
			return nil, err
		}
		if len(sw.StateInline) > 0 {
			if err := sched.UnmarshalState(sw.StateInline); err != nil {
				return nil, err
			}
		}
		svc.Scheduler = sched
	}
	return svc, nil
}
