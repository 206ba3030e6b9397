package core

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/filestore"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/train"
)

// Provenance is the model provenance approach (MPA, Section 3.3): derived
// models are represented by their provenance — training process, training
// environment, training data, and a base-model reference — instead of their
// parameters. Recovery re-executes the training deterministically, which
// requires the training service to have been run in deterministic mode.
type Provenance struct {
	service
	// DatasetByReference enables the external-dataset-manager mode of
	// Section 3.3 ("Managing Data sets"): instead of archiving the dataset
	// into the file store, only a reference to an externally managed
	// dataset is recorded. Recovery then resolves the reference through
	// ResolveDataset.
	DatasetByReference bool
}

// NewProvenance creates a model provenance save service.
func NewProvenance(stores Stores) *Provenance {
	p := &Provenance{}
	p.service = service{stores: stores, name: ProvenanceApproach, plan: p.plan}
	return p
}

// plan is the MPA policy: an initial model is a full snapshot, a derived
// model its provenance only — no parameters.
func (p *Provenance) plan(info SaveInfo) savePlan {
	if info.BaseID == "" {
		return savePlan{kind: snapshotLink, approach: ProvenanceApproach}
	}
	return savePlan{kind: provenanceLink, approach: ProvenanceApproach, datasetByRef: p.DatasetByReference}
}

// ProvenanceRecord captures everything needed to reproduce a training run:
// the service document, the pre-training optimizer state, the dataset, and
// the hash of the training result for verification. Create it with
// NewProvenanceRecord *before* training (the paper: "For every object
// referenced as part of the training process, we save its state before the
// training starts"), then call Train, then pass it to Provenance.Save.
type ProvenanceRecord struct {
	doc        train.ServiceDoc
	optState   []byte
	ds         *dataset.Dataset
	service    train.Service
	trained    bool
	resultHash string
	// externalRef is set when the dataset is managed externally.
	externalRef string
}

// NewProvenanceRecord snapshots the training service's pre-training state.
func NewProvenanceRecord(svc train.Service) (*ProvenanceRecord, error) {
	doc, opt, ds, err := svc.Describe()
	if err != nil {
		return nil, fmt.Errorf("core: describing train service: %w", err)
	}
	rec := &ProvenanceRecord{doc: doc, ds: ds, service: svc}
	if opt != nil && opt.HasState() {
		var buf bytes.Buffer
		if _, err := opt.WriteState(&buf); err != nil {
			return nil, fmt.Errorf("core: capturing optimizer state: %w", err)
		}
		rec.optState = buf.Bytes()
	}
	return rec, nil
}

// SetExternalDatasetRef marks the dataset as externally managed under the
// given reference (used with Provenance.DatasetByReference).
func (r *ProvenanceRecord) SetExternalDatasetRef(ref string) { r.externalRef = ref }

// Train runs the recorded service on net and remembers the result hash for
// recovery verification.
func (r *ProvenanceRecord) Train(net nn.Module) (train.Stats, error) {
	stats, err := r.service.Train(net)
	if err != nil {
		return stats, err
	}
	r.trained = true
	r.resultHash = nn.StateDictOf(net).Hash()
	return stats, nil
}

// writeProvenance writes a provenance link: the train-service document,
// the dataset (archived, or by reference), the optimizer's pre-training
// state, the environment — everything needed to run the training again,
// and no parameters.
func (s *service) writeProvenance(ctx context.Context, info SaveInfo, plan savePlan) (_ SaveResult, retErr error) {
	rec := info.Provenance
	switch {
	case rec == nil:
		return SaveResult{}, fmt.Errorf("core: provenance approach needs a ProvenanceRecord for derived saves")
	case !rec.trained:
		return SaveResult{}, fmt.Errorf("core: provenance record was not trained; call Train before Save")
	case plan.datasetByRef && rec.externalRef == "":
		return SaveResult{}, fmt.Errorf("core: dataset-by-reference mode needs an external dataset reference")
	case !plan.datasetByRef && rec.ds == nil:
		return SaveResult{}, fmt.Errorf("core: provenance record has no dataset")
	}
	sv := s.beginSaving(ctx, info, plan)
	defer func() { sv.txn.end(retErr) }()
	if info.WithChecksums {
		sv.doc.StateHash = rec.resultHash
	}
	envID := sv.txn.stageDoc(ColEnvironments)
	svcID := sv.txn.stageDoc(ColServices)
	var dsID, optStateID, hashID string
	if !plan.datasetByRef {
		dsID = sv.txn.stageBlob()
	}
	if len(rec.optState) > 0 {
		optStateID = sv.txn.stageBlob()
	}
	if plan.layerHashes {
		hashID = sv.txn.stageDoc(ColLayerHashes)
	}
	if err := sv.txn.writeAhead(); err != nil {
		return SaveResult{}, err
	}

	svcDoc := rec.doc
	svcDoc.DatasetRef = "external:" + rec.externalRef
	steps := []func() error{func() error { return sv.putEnv(envID, info) }}
	if !plan.datasetByRef {
		svcDoc.DatasetRef = dsID
		steps = append(steps, func() error {
			return phase(ctx, "save.dataset", nil, func(*obs.Span) error {
				size, err := saveDatasetArchive(sv.txn, dsID, rec.ds)
				sv.stored(size, 0)
				return err
			})
		})
	}
	// Layer hashes on the adaptive policy's behalf, inside the same
	// transaction: a later parameter update can then diff against this
	// model although it stores no parameters.
	if plan.layerHashes {
		steps = append(steps, func() error {
			return sv.putLayerHashes(hashID, nn.StateDictOf(info.Net).LayerHashes())
		})
	}
	// The optimizer's state is the wrapper object's state file; its content
	// hash is recorded beside the reference, so the service document follows
	// that blob within its step.
	steps = append(steps, func() error {
		if len(rec.optState) > 0 {
			w := svcDoc.Wrappers["optimizer"]
			w.StateFileRef = optStateID
			var err error
			if w.StateFileHash, err = sv.putBlob(optStateID, "optstate", rec.optState); err != nil {
				return err
			}
			svcDoc.Wrappers["optimizer"] = w
		}
		sv.doc.ServiceDocID = svcID
		return sv.putDoc(ColServices, svcID, "service", svcDoc)
	})
	if err := together(steps...); err != nil {
		return SaveResult{}, err
	}
	return sv.commit()
}

// saveDatasetArchive writes the dataset's compressed archive into the
// staged blob id.
func saveDatasetArchive(txn *saveTxn, id string, ds *dataset.Dataset) (int64, error) {
	size, _, err := txn.saveBlob(id, "dataset", filestore.Source(ds.WriteArchive))
	if err != nil {
		return 0, fmt.Errorf("core: archiving dataset: %w", err)
	}
	return size, nil
}
