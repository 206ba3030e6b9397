// Package mmlib is the public API of mmlib-go, a Go reproduction of
// "Efficiently Managing Deep Learning Models in a Distributed Environment"
// (Strassenburg, Tolovski, Rabl — EDBT 2022).
//
// The library saves and recovers *exact* deep-learning model
// representations. A stored model is a chain of typed links, and the
// approaches are policies for which kind of link a save writes:
//
//   - Baseline: complete independent snapshots of every model.
//   - ParamUpdate: derived models store only their changed layers, found
//     via Merkle trees over per-layer parameter hashes.
//   - Provenance: derived models store their training provenance (train
//     service, compressed dataset, environment) and are recovered by
//     re-executing the training deterministically. A provenance record
//     given SetExternalDatasetRef stores that reference to a dataset an
//     external manager holds (see NewDatasetManager) instead of archiving
//     the dataset: by-reference storage is the record's choice.
//   - Adaptive: per save, whichever of the above is expected to store least.
//
// Recovery is the same for all of them — follow base references down to a
// snapshot, then merge or replay each link on the way back up — so every
// service recovers every stored model, whichever service saved it.
//
// A typical workflow:
//
//	stores, _ := mmlib.OpenLocalStores("/var/mmlib")
//	svc := mmlib.NewParamUpdate(stores)
//	net, _ := mmlib.BuildModel(mmlib.ResNet18, 1000, 42)
//	res, _ := svc.Save(mmlib.SaveInfo{Spec: mmlib.Spec{Arch: mmlib.ResNet18, NumClasses: 1000}, Net: net, WithChecksums: true})
//	recovered, _ := svc.Recover(res.ID, mmlib.RecoverOptions{VerifyChecksums: true})
//
// The packages under internal/ implement the substrates (tensors, layers,
// model zoo, document store, file store, datasets, training, probing); this
// package re-exports the surface a downstream user needs.
package mmlib

import (
	"fmt"
	"path/filepath"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datamgr"
	"repro/internal/dataset"
	"repro/internal/docdb"
	"repro/internal/environment"
	"repro/internal/filestore"
	"repro/internal/infer"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/probe"
	"repro/internal/shard"
	"repro/internal/tensor"
	"repro/internal/train"
)

// Core save/recover types.
type (
	// SaveService saves models with one of the approaches and recovers
	// any stored model: Save, Recover (a fresh net), RecoverState (the
	// state dict, O(1) on a cache hit) — each also in a Ctx form taking a
	// context that carries a tracer and cancels — and SetRecoveryCache.
	SaveService = core.SaveService
	// SaveInfo describes a model to save.
	SaveInfo = core.SaveInfo
	// SaveResult reports a completed save with its storage footprint.
	SaveResult = core.SaveResult
	// RecoverOptions selects environment and checksum verification.
	RecoverOptions = core.RecoverOptions
	// RecoveredModel is a recovered model with its TTR breakdown.
	RecoveredModel = core.RecoveredModel
	// RecoveredState is a recovered state dict — sealed, shared and
	// read-only when a cache holds it — with everything needed to
	// Instantiate a net.
	RecoveredState = core.RecoveredState
	// RecoveryCache memoizes recovered states by model id; set one with
	// SaveService.SetRecoveryCache.
	RecoveryCache = core.RecoveryCache
	// RecoverTiming is the load/recover/check-env/verify time split.
	RecoverTiming = core.RecoverTiming
	// Stores bundles the metadata database and the shared file store.
	Stores = core.Stores
	// ProvenanceRecord captures a training run for the provenance approach.
	ProvenanceRecord = core.ProvenanceRecord
)

// Model construction types.
type (
	// Spec identifies a model architecture ("model code").
	Spec = models.Spec
	// Module is a neural-network model.
	Module = nn.Module
)

// Dataset and training types.
type (
	// Dataset is a labeled image dataset.
	Dataset = dataset.Dataset
	// DatasetSpec describes a synthetic dataset.
	DatasetSpec = dataset.Spec
	// TrainService trains a model and is serializable as provenance.
	TrainService = train.Service
	// TrainStats reports training timing and losses.
	TrainStats = train.Stats
	// EnvironmentInfo describes an execution environment.
	EnvironmentInfo = environment.Info
	// ProbeSummary is a probe run's layer-wise fingerprint.
	ProbeSummary = probe.Summary
	// ProbeConfig configures the probing tool.
	ProbeConfig = probe.Config
)

// Architecture names of the evaluation model zoo (Table 2 of the paper).
const (
	MobileNetV2 = models.MobileNetV2Name
	GoogLeNet   = models.GoogLeNetName
	ResNet18    = models.ResNet18Name
	ResNet50    = models.ResNet50Name
	ResNet152   = models.ResNet152Name
	TinyCNN     = models.TinyCNNName
)

// ErrModelNotFound is returned when recovering an unknown identifier.
var ErrModelNotFound = core.ErrModelNotFound

// NewBaseline creates the baseline save service (complete snapshots).
func NewBaseline(s Stores) SaveService { return core.NewBaseline(s) }

// NewParamUpdate creates the parameter update save service.
func NewParamUpdate(s Stores) SaveService { return core.NewParamUpdate(s) }

// NewProvenance creates the model provenance save service.
func NewProvenance(s Stores) SaveService { return core.NewProvenance(s) }

// NewAdaptive creates the adaptive service that picks an approach per model
// (the future-work heuristic of the paper's Section 4.7).
func NewAdaptive(s Stores) SaveService { return core.NewAdaptive(s) }

// NewRecoveryCache creates a recovery cache bounded to approximately
// maxBytes of cached state (<= 0 selects a 256 MB default).
func NewRecoveryCache(maxBytes int64) *RecoveryCache { return core.NewRecoveryCache(maxBytes) }

// NewProvenanceRecord snapshots a training service's pre-training state.
// Call it before training, run ProvenanceRecord.Train, and pass the record
// to the provenance service's Save.
func NewProvenanceRecord(svc TrainService) (*ProvenanceRecord, error) {
	return core.NewProvenanceRecord(svc)
}

// OpenLocalStores opens an embedded metadata store and file store under
// dir. It is the single-machine deployment; for the distributed deployment
// use ConnectStores with a running mmserver.
func OpenLocalStores(dir string) (Stores, error) {
	meta, err := docdb.OpenDisk(filepath.Join(dir, "meta"))
	if err != nil {
		return Stores{}, err
	}
	files, err := filestore.Open(filepath.Join(dir, "files"))
	if err != nil {
		return Stores{}, err
	}
	return Stores{Meta: meta, Files: files}, nil
}

// ConnectStores connects to a document-database server (see cmd/mmserver)
// and opens the shared file-store directory — the paper's deployment of a
// dedicated MongoDB machine plus a shared file system.
func ConnectStores(dbAddr, filesDir string) (Stores, error) {
	meta, err := docdb.Dial(dbAddr)
	if err != nil {
		return Stores{}, err
	}
	files, err := filestore.Open(filesDir)
	if err != nil {
		meta.Close()
		return Stores{}, err
	}
	return Stores{Meta: meta, Files: files}, nil
}

// ConnectShardedStores connects to a fleet of document-database servers and
// file-store directories, routing operations across them with a
// consistent-hash ring — the scaled-out deployment where the paper's single
// metadata machine and shared file system become N of each. dbAddrs and
// filesDirs must be the same length and, critically, in the same order on
// every process that shares the deployment: the ring routes by position.
// Each metadata shard is dialed through a pool of poolSize pipelined
// connections (<= 0 selects the default size).
func ConnectShardedStores(dbAddrs, filesDirs []string, poolSize int) (Stores, error) {
	if len(dbAddrs) != len(filesDirs) {
		return Stores{}, fmt.Errorf("mmlib: %d database addresses but %d file directories", len(dbAddrs), len(filesDirs))
	}
	files, err := shard.OpenFiles(filesDirs)
	if err != nil {
		return Stores{}, err
	}
	meta, err := shard.DialMeta(dbAddrs, poolSize, docdb.ClientOptions{})
	if err != nil {
		return Stores{}, err
	}
	return Stores{Meta: meta, Files: files}, nil
}

// BuildModel constructs and seed-initializes one of the registered
// architectures.
func BuildModel(arch string, numClasses int, seed uint64) (Module, error) {
	return models.New(arch, numClasses, seed)
}

// FreezeForPartialUpdate freezes all parameters except the classifier,
// producing the paper's partially updated model versions on subsequent
// training.
func FreezeForPartialUpdate(arch string, m Module) {
	models.FreezeForPartialUpdate(arch, m)
}

// GenerateDataset materializes a synthetic dataset.
func GenerateDataset(spec DatasetSpec) (*Dataset, error) { return dataset.Generate(spec) }

// NewTrainService assembles an image-classifier training service.
func NewTrainService(ds *Dataset, loaderCfg train.LoaderConfig, optCfg train.SGDConfig, svcCfg train.ServiceConfig) (TrainService, error) {
	loader, err := train.NewDataLoader(ds, loaderCfg)
	if err != nil {
		return nil, err
	}
	return train.NewImageClassifierTrainService(svcCfg, loader, train.NewSGD(optCfg)), nil
}

// Training configuration types, re-exported for NewTrainService.
type (
	// LoaderConfig configures the dataloader.
	LoaderConfig = train.LoaderConfig
	// SGDConfig configures the SGD optimizer.
	SGDConfig = train.SGDConfig
	// ServiceConfig configures the training service.
	ServiceConfig = train.ServiceConfig
)

// VerifyReproducible runs the probing tool twice over the model and reports
// whether inference and training are bit-reproducible in the current setup
// (Section 2.4 of the paper). The returned strings describe any layer-wise
// differences.
func VerifyReproducible(m Module, cfg ProbeConfig) (bool, []string, error) {
	ok, diffs, err := probe.Verify(m, cfg)
	if err != nil {
		return false, nil, err
	}
	out := make([]string, len(diffs))
	for i, d := range diffs {
		out[i] = d.String()
	}
	return ok, out, nil
}

// DefaultProbeConfig returns the probe configuration for the evaluation
// models.
func DefaultProbeConfig() ProbeConfig { return probe.DefaultConfig() }

// CaptureEnvironment records the current execution environment.
func CaptureEnvironment() EnvironmentInfo { return environment.Capture() }

// CheckEnvironment verifies the current environment matches a recorded one.
func CheckEnvironment(recorded EnvironmentInfo) error { return environment.Check(recorded) }

// EvaluationModels returns the five Table 2 architecture names in the
// paper's order.
func EvaluationModels() []string { return models.EvaluationNames() }

// ModelEqual reports whether two models have identical architecture state —
// the paper's exact-equality criterion for saved and recovered models.
func ModelEqual(a, b Module) bool {
	return nn.StateDictOf(a).Equal(nn.StateDictOf(b))
}

// NumParams returns the total scalar parameter count of a model.
func NumParams(m Module) int { return nn.NumParams(m) }

// Describe returns a short human-readable description of a save result.
func Describe(r SaveResult) string {
	return fmt.Sprintf("%s: id=%s storage=%d B (meta %d B, files %d B) tts=%s",
		r.Approach, r.ID, r.StorageBytes, r.MetaBytes, r.FileBytes, r.Duration)
}

// Server-side management types.
type (
	// Catalog lists models, walks lineage, deletes, and collects garbage.
	Catalog = catalog.Catalog
	// CatalogEntry summarizes one saved model.
	CatalogEntry = catalog.Entry
	// DatasetManager is a content-addressed dataset warehouse holding the
	// datasets provenance records reference instead of archiving.
	DatasetManager = datamgr.Manager
)

// ErrModelInUse is returned when deleting a model other models derive from.
var ErrModelInUse = catalog.ErrInUse

// NewCatalog creates a model catalog over the stores.
func NewCatalog(s Stores) *Catalog { return catalog.New(s) }

// NewDatasetManager creates a dataset warehouse persisting archives under
// dir, for NewProvenanceWithManager and NewAdaptiveWithManager.
func NewDatasetManager(dir string) (*DatasetManager, error) {
	files, err := filestore.Open(dir)
	if err != nil {
		return nil, err
	}
	return datamgr.New(files), nil
}

// NewProvenanceWithManager creates a provenance save service whose
// recoveries resolve dataset references through mgr — the
// external-dataset-manager deployment of the paper's Section 3.3. Publish
// the training dataset through mgr, pass the returned reference to
// ProvenanceRecord.SetExternalDatasetRef, and save as usual; a record
// without a reference archives its dataset, as with NewProvenance.
func NewProvenanceWithManager(s Stores, mgr *DatasetManager) SaveService {
	p := core.NewProvenance(s)
	p.ResolveDataset = mgr.Resolve
	return p
}

// NewAdaptiveWithManager creates an adaptive service whose recoveries
// resolve dataset references through mgr, as NewProvenanceWithManager.
func NewAdaptiveWithManager(s Stores, mgr *DatasetManager) SaveService {
	a := core.NewAdaptive(s)
	a.ResolveDataset = mgr.Resolve
	return a
}

// Inference types.
type (
	// Tensor is the dense float32 tensor inputs and outputs use.
	Tensor = tensor.Tensor
	// Prediction is a ranked classification output for one input.
	Prediction = infer.Prediction
	// EvalReport summarizes accuracy over a dataset.
	EvalReport = infer.Report
)

// NewTensor creates a tensor over data with the given shape (row major).
func NewTensor(data []float32, shape ...int) *Tensor { return tensor.New(data, shape...) }

// BatchOf decodes dataset images [lo, hi) into an inference batch
// [hi-lo, 3, outH, outW].
func BatchOf(ds *Dataset, lo, hi, outH, outW int) (*Tensor, []int, error) {
	if lo < 0 || hi > ds.Len() || lo >= hi {
		return nil, nil, fmt.Errorf("mmlib: invalid batch range [%d, %d) for %d images", lo, hi, ds.Len())
	}
	bs := hi - lo
	x := tensor.Zeros(bs, 3, outH, outW)
	labels := make([]int, bs)
	per := 3 * outH * outW
	for i := 0; i < bs; i++ {
		img := ds.Image(lo+i, outH, outW)
		copy(x.Data()[i*per:(i+1)*per], img.Data())
		labels[i] = ds.Label(lo + i)
	}
	return x, labels, nil
}

// Predict runs batched inference on x ([N, 3, H, W]) and returns top-k
// predictions per sample. Inference runs deterministically, so a recovered
// model reproduces the exact outputs of the saved one.
func Predict(m Module, x *tensor.Tensor, k int) ([]Prediction, error) {
	return infer.Predict(m, x, k)
}

// EvaluateModel computes top-1/top-5 accuracy of m over ds.
func EvaluateModel(m Module, ds *Dataset, batchSize, outH, outW int) (EvalReport, error) {
	return infer.Evaluate(m, ds, batchSize, outH, outW)
}
