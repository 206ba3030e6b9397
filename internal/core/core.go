// Package core implements the paper's contribution: three approaches for
// saving and recovering exact deep-learning model representations in a
// distributed environment (Section 3).
//
//   - Baseline (BA): every model is saved as a complete, independent
//     snapshot — metadata, architecture ("model code" plus environment),
//     and all parameters.
//   - Parameter update (PUA): a derived model is saved as a reference to
//     its base model plus only the layers whose parameters changed. Changed
//     layers are found by comparing per-layer hash Merkle trees, so saving
//     never requires recovering the base model's parameters.
//   - Model provenance (MPA): a derived model is saved as its provenance —
//     the training service (wrapped objects, hyperparameters), the
//     compressed training dataset, the environment, and a base-model
//     reference. Recovery re-executes the training deterministically.
//
// The approaches are save policies. A stored model is a chain of typed
// links — snapshot, parameter update, provenance — and each service decides
// per save which kind to write (the adaptive one, Section 4.7, by expected
// storage); the three link writers and the one recovery that walks any
// chain are shared (service.go, walker.go), so every service recovers every
// stored model.
//
// Everything persists as JSON documents in a docdb.Store (MongoDB in the
// paper) organized hierarchically, and opaque artifacts in a
// filestore.Store (the paper's shared file system). A saved model and its
// recovered counterpart are equal in the paper's strict sense: identical
// architecture and bit-identical parameters.
package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/docdb"
	"repro/internal/environment"
	"repro/internal/filestore"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/train"
)

// Approach identifiers.
const (
	BaselineApproach    = "baseline"
	ParamUpdateApproach = "param_update"
	ProvenanceApproach  = "provenance"
)

// Document collections used in the metadata store.
const (
	ColModels       = "models"
	ColEnvironments = "environments"
	ColLayerHashes  = "layer_hashes"
	ColServices     = "train_services"
)

// ErrModelNotFound is returned when recovering an unknown model identifier.
var ErrModelNotFound = errors.New("core: model not found")

// Stores bundles the metadata database and the shared file store every
// approach persists into.
type Stores struct {
	Meta docdb.Store
	// Files is the artifact blob provider: a single *filestore.Store in
	// the paper's one-shared-filesystem setup, or a shard.Files fanning
	// blobs out across several behind a consistent-hash ring.
	Files filestore.Blobs
	// Crash, when non-nil, is called at every crash point of a
	// transactional save (deterministic fault injection for the
	// crash-recovery test suite). Returning an error — conventionally
	// wrapping ErrInjectedCrash — abandons the in-flight save exactly as a
	// process death at that point would: no rollback runs, the staged
	// artifacts stay on disk, and cleanup is RecoverOrphans' job.
	Crash CrashFn
}

// SaveInfo describes a model to save.
type SaveInfo struct {
	// Spec identifies the architecture (the "model code").
	Spec models.Spec
	// Net is the live model whose state is saved.
	Net nn.Module
	// BaseID references the base model for derived models; empty for
	// independent snapshots (U1).
	BaseID string
	// Env is the recorded execution environment. If zero it is captured.
	Env *environment.Info
	// WithChecksums stores content hashes so recovery can verify the model
	// was reconstructed correctly.
	WithChecksums bool
	// Provenance must be set for derived saves with the provenance
	// approach; other approaches ignore it.
	Provenance *ProvenanceRecord
}

// SaveResult reports a completed save.
type SaveResult struct {
	// ID identifies the saved model for later recovery.
	ID string
	// Approach is the approach that performed the save.
	Approach string
	// StorageBytes is the storage consumed by this model, excluding its
	// base models (the paper's storage-consumption metric): JSON metadata
	// plus all files written.
	StorageBytes int64
	// MetaBytes and FileBytes split StorageBytes into document and file
	// storage.
	MetaBytes int64
	FileBytes int64
	// Duration is the wall-clock time-to-save (TTS).
	Duration time.Duration
}

// RecoverOptions control the recovery process.
type RecoverOptions struct {
	// CheckEnv verifies the recorded environment against the current one.
	// The check's cost is reported separately (Figure 12 excludes it).
	CheckEnv bool
	// VerifyChecksums re-hashes the recovered parameters against stored
	// checksums when the model was saved with checksums.
	VerifyChecksums bool
}

// RecoverTiming is the recovery-time breakdown of Figure 12.
type RecoverTiming struct {
	// Load is the time to fetch documents and file bytes.
	Load time.Duration
	// Recover is the time to rebuild the model from the loaded data
	// (deserialization, architecture construction, merging or retraining).
	Recover time.Duration
	// CheckEnv is the environment verification time.
	CheckEnv time.Duration
	// Verify is the checksum verification time.
	Verify time.Duration
}

// Total returns the total time-to-recover (TTR).
func (t RecoverTiming) Total() time.Duration {
	return t.Load + t.Recover + t.CheckEnv + t.Verify
}

func (t *RecoverTiming) add(o RecoverTiming) {
	t.Load += o.Load
	t.Recover += o.Recover
	t.CheckEnv += o.CheckEnv
	t.Verify += o.Verify
}

// RecoveredModel is the result of a recovery.
type RecoveredModel struct {
	ID   string
	Spec models.Spec
	// Net is the recovered model with restored parameters and buffers.
	Net nn.Module
	// BaseID is the recovered model's base reference (empty for roots).
	BaseID string
	// Links is the number of stored models the recovery walked (see
	// RecoveredState.Links).
	Links int
	// Timing is the TTR breakdown over the whole chain.
	Timing RecoverTiming
}

// SaveService is what all four services (BA, PUA, MPA, adaptive) are. They
// differ only in how Save represents a model; every one of them recovers
// every stored model, whichever service saved it. Each operation has a
// plain form and a Ctx form taking a context: a tracer the context carries
// receives the operation's spans, and cancelling it abandons a recovery.
type SaveService interface {
	// Approach returns the approach identifier.
	Approach() string
	// Save persists the model and returns its identifier and metrics.
	Save(info SaveInfo) (SaveResult, error)
	SaveCtx(ctx context.Context, info SaveInfo) (SaveResult, error)
	// Recover reconstructs the model saved under id as a fresh net:
	// RecoverState, then RecoveredState.Instantiate.
	Recover(id string, opts RecoverOptions) (*RecoveredModel, error)
	RecoverCtx(ctx context.Context, id string, opts RecoverOptions) (*RecoveredModel, error)
	// RecoverState reconstructs the model's state dict without building a
	// net — the serving tier's entry point, O(1) on a cache hit.
	RecoverState(id string, opts RecoverOptions) (*RecoveredState, error)
	RecoverStateCtx(ctx context.Context, id string, opts RecoverOptions) (*RecoveredState, error)
	// SetRecoveryCache memoizes recoveries through c (nil disables): a hit
	// on the requested model skips the store, a hit on an ancestor leaves
	// only the links above it to apply.
	SetRecoveryCache(c *RecoveryCache)
}

// modelDoc is the root metadata document of a saved model. Sub-documents
// (environment, layer hashes, train service) are stored separately and
// referenced by identifier, mirroring the paper's hierarchical JSON
// documents.
type modelDoc struct {
	Approach string `json:"approach"`
	BaseID   string `json:"base_id,omitempty"`
	// CodeFileRef references the "model code" file (the serialized
	// architecture spec).
	CodeFileRef string `json:"code_file_ref,omitempty"`
	// CodeFileHash is the content hash of the model code file, as reported
	// by the file store while writing it.
	CodeFileHash string `json:"code_file_hash,omitempty"`
	// EnvDocID references the environment document.
	EnvDocID string `json:"env_doc_id,omitempty"`
	// ParamsFileRef references the serialized parameters: the full state
	// dict for baseline saves, the parameter update for PUA saves.
	ParamsFileRef string `json:"params_file_ref,omitempty"`
	// ParamsFramesHash is the frames hash of the parameter file (see
	// nn.FramesHash): built from the per-tensor digests the save computes
	// anyway, so recording it costs O(entries), and checked against the
	// stored blob by nn.AuditFramesHash.
	ParamsFramesHash string `json:"params_frames_hash,omitempty"`
	// ParamsFileHash is the SHA-256 of the parameter file, which saves
	// recorded before ParamsFramesHash existed. It is never written now;
	// where an old document carries it, it still means the file's SHA-256.
	ParamsFileHash string `json:"params_file_hash,omitempty"`
	// UpdatedLayers lists the layer paths contained in a parameter update.
	UpdatedLayers []string `json:"updated_layers,omitempty"`
	// HashDocID references the per-layer hash document (PUA).
	HashDocID string `json:"hash_doc_id,omitempty"`
	// StateHash is the checksum of the full model state, stored when the
	// model was saved with checksums.
	StateHash string `json:"state_hash,omitempty"`
	// TrainablePrefixes records which layers were trainable, so a
	// recovered model restores the same freezing.
	TrainablePrefixes []string `json:"trainable_prefixes,omitempty"`
	// ServiceDocID references the train-service provenance document (MPA).
	ServiceDocID string `json:"service_doc_id,omitempty"`
}

// owned returns what the committed model with root document d owns —
// exactly what its save staged: model code, parameters, the environment,
// service and layer-hash documents and, named by the service document, the
// dataset archive unless external and the optimizer state. A service
// document it cannot read is an error, never a smaller set, since a
// collector deletes what it leaves out; the rest of the set comes with it.
func (d modelDoc) owned(meta docdb.Store) (Owned, error) {
	var o Owned
	blob := func(ref string) {
		if ref != "" {
			o.Blobs = append(o.Blobs, ref)
		}
	}
	blob(d.CodeFileRef)
	blob(d.ParamsFileRef)
	for _, ref := range []DocRef{{ColEnvironments, d.EnvDocID}, {ColServices, d.ServiceDocID}, {ColLayerHashes, d.HashDocID}} {
		if ref.ID != "" {
			o.Docs = append(o.Docs, ref)
		}
	}
	if d.ServiceDocID != "" {
		svc, err := loadDoc[train.ServiceDoc](meta, ColServices, d.ServiceDocID)
		if err != nil {
			return o, err
		}
		if !strings.HasPrefix(svc.DatasetRef, externalPrefix) {
			blob(svc.DatasetRef)
		}
		blob(svc.Wrappers["optimizer"].StateFileRef)
	}
	return o, nil
}

// StoredModel is one committed model as a catalog reports it.
type StoredModel struct {
	ID       string `json:"id"`
	Approach string `json:"approach"`
	BaseID   string `json:"base_id,omitempty"`
	// Kind is how the model is materialized: "snapshot" (full parameters),
	// "update" (parameter update), "provenance", or "unknown".
	Kind string `json:"kind"`
	// Owns is what deleting the model removes besides its root document.
	Owns Owned `json:"-"`
}

// ReadModel reads the committed model id and what it owns. It returns
// ErrModelNotFound when the model does not exist, also when it was deleted
// while being read.
func ReadModel(meta docdb.Store, id string) (StoredModel, error) {
	doc, err := getModelDoc(meta, id)
	if err != nil {
		return StoredModel{}, err
	}
	return storedModel(meta, id, doc)
}

// ReadChain reads the lineage of model id: id, its base, its base's base,
// and on past any snapshot down to a model with no base reference.
func ReadChain(meta docdb.Store, id string) ([]StoredModel, error) {
	var out []StoredModel
	lin := newLineage(meta, "")
	for id != "" {
		doc, err := lin.read(context.Background(), id)
		if err != nil {
			return nil, err
		}
		m, err := storedModel(meta, id, doc)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
		id = doc.BaseID
	}
	return out, nil
}

// storedModel completes model id, whose root document is doc, with what it
// owns.
func storedModel(meta docdb.Store, id string, doc modelDoc) (StoredModel, error) {
	owns, err := doc.owned(meta)
	if errors.Is(err, docdb.ErrNotFound) {
		// A deletion removes blobs, then side documents, then the root, so
		// a service document not found named blobs that are gone. Under a
		// root gone too, the model was deleted while it was read; under a
		// root still there, a deletion was cut short, and the rest is left.
		_, err = meta.Get(ColModels, id)
		if errors.Is(err, docdb.ErrNotFound) {
			return StoredModel{}, fmt.Errorf("%w: %s", ErrModelNotFound, id)
		}
	}
	if err != nil {
		return StoredModel{}, fmt.Errorf("core: model %s: %w", id, err)
	}
	return StoredModel{ID: id, Approach: doc.Approach, BaseID: doc.BaseID, Kind: string(doc.kind()), Owns: owns}, nil
}

// docToMap converts a struct into a docdb document via JSON.
func docToMap(v any) (docdb.Document, int64, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, 0, fmt.Errorf("core: encoding document: %w", err)
	}
	var doc docdb.Document
	if err := docdb.Unmarshal(b, &doc); err != nil {
		return nil, 0, err
	}
	return doc, int64(len(b)), nil
}

// mapToDoc converts a docdb document back into a struct via JSON.
func mapToDoc(doc docdb.Document, v any) error {
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("core: decoding document: %w", err)
	}
	return nil
}

// loadDoc fetches and decodes one document.
func loadDoc[T any](meta docdb.Store, col, id string) (T, error) {
	var v T
	raw, err := meta.Get(col, id)
	if err != nil {
		return v, fmt.Errorf("core: loading %s/%s: %w", col, id, err)
	}
	return v, mapToDoc(raw, &v)
}

// getModelDoc fetches and decodes a model's root document.
func getModelDoc(meta docdb.Store, id string) (modelDoc, error) {
	doc, err := loadDoc[modelDoc](meta, ColModels, id)
	if errors.Is(err, docdb.ErrNotFound) {
		return modelDoc{}, fmt.Errorf("%w: %s", ErrModelNotFound, id)
	}
	return doc, err
}

// captureEnv returns info.Env or captures the current environment.
func captureEnv(info SaveInfo) environment.Info {
	if info.Env != nil {
		return *info.Env
	}
	return environment.Capture()
}
