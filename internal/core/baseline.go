package core

import (
	"bytes"
	"context"
	"fmt"
	"sync"

	"repro/internal/docdb"
	"repro/internal/filestore"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/par"
)

// Baseline is the baseline approach (BA, Section 3.1): it saves every model
// as a complete independent snapshot, so recovering one never touches a
// base model. It is the reference point the advanced approaches are
// measured against, and its snapshot is also what every approach writes
// for an initial model.
type Baseline struct{ service }

// NewBaseline creates a baseline save service over the given stores.
func NewBaseline(stores Stores) *Baseline {
	return &Baseline{service{stores: stores, name: BaselineApproach, plan: func(SaveInfo) savePlan {
		return savePlan{kind: snapshotLink, approach: BaselineApproach}
	}}}
}

// saving is one link being written: the transaction, the root document as
// filled in so far, and the storage accounted so far. The three link
// writers stage and write their artifacts through it; every save runs as
// one transaction (see txn.go) — identifiers are staged in a write-ahead
// record before any artifact is written, the artifacts go out together as
// one wave, the root document insert is the commit point, and an error on
// the way out rolls the staged artifacts back. The steps of a wave fill in
// disjoint fields of doc and account their bytes through stored.
type saving struct {
	ctx context.Context
	txn *saveTxn
	doc modelDoc
	mu  sync.Mutex // guards res while a wave is in flight
	res SaveResult
}

// together runs steps concurrently, one worker per step with the caller
// as one of them, and returns the first error in step order. A save's
// steps with no ordering constraint between them go through it as one
// wave: its document writes overlap on the wire instead of queueing one
// round trip behind another. It returns only once every step has, so an
// error path rolls back with nothing still in flight; a blob write that
// outlived its wave would land after the rollback deleted its id and be an
// orphan no staging record names.
func together(steps ...func() error) error {
	return par.For(len(steps), len(steps), func(i int) error { return steps[i]() })
}

// stored accounts the bytes one step wrote.
func (sv *saving) stored(file, meta int64) {
	sv.mu.Lock()
	sv.res.FileBytes += file
	sv.res.MetaBytes += meta
	sv.mu.Unlock()
}

func (s *service) beginSaving(ctx context.Context, info SaveInfo, plan savePlan) *saving {
	return &saving{
		ctx: ctx,
		txn: beginSave(s.stores, ColModels, info.BaseID),
		doc: modelDoc{Approach: plan.approach, BaseID: info.BaseID, TrainablePrefixes: nn.TrainablePrefixes(info.Net)},
		res: SaveResult{Approach: plan.approach},
	}
}

// putBlob writes a small in-memory artifact under its staged id.
func (sv *saving) putBlob(id, label string, b []byte) (hash string, err error) {
	err = phase(sv.ctx, "save."+label, nil, func(*obs.Span) error {
		size, h, err := sv.txn.saveBlob(id, label, bytes.NewReader(b))
		if err != nil {
			return fmt.Errorf("core: saving %s: %w", label, err)
		}
		hash = h
		sv.stored(size, 0)
		return nil
	})
	return hash, err
}

// paramsBlob is a written parameter blob: its stored size and frames hash.
type paramsBlob struct {
	size int64
	hash string
}

// putParams streams a state dict — a full one or an update — into the
// staged blob id and records it as the link's parameters. The parameter
// bytes are hashed once, into the per-tensor digests (computed beside the
// serializer unless sd's cache already holds them): the frames hash, the
// state hash and the layer hashes all read the cache.
func (sv *saving) putParams(id string, sd *nn.StateDict) error {
	b, err := sv.writeParams(id, sd, nil)
	if err != nil {
		return err
	}
	sv.adoptParams(id, b)
	return nil
}

// writeParams writes sd into the staged blob id (see saveStateDict for
// digested) without recording it as the link's: a parameter update written
// before its diff is only adopted once the diff agrees with it.
func (sv *saving) writeParams(id string, sd *nn.StateDict, digested <-chan struct{}) (b paramsBlob, err error) {
	err = phase(sv.ctx, "save.params", nil, func(*obs.Span) (err error) {
		b.size, b.hash, err = saveStateDict(sv.txn, id, sd, digested)
		return err
	})
	return b, err
}

// adoptParams records the written blob b as the link's parameters.
func (sv *saving) adoptParams(id string, b paramsBlob) {
	sv.doc.ParamsFileRef, sv.doc.ParamsFramesHash = id, b.hash
	sv.stored(b.size, 0)
}

// putDoc writes one side document under its staged id.
func (sv *saving) putDoc(col, id, label string, v any) error {
	return phase(sv.ctx, "save."+label, nil, func(*obs.Span) error {
		doc, size, err := docToMap(v)
		if err != nil {
			return err
		}
		if err := sv.txn.putDoc(col, id, label, doc); err != nil {
			return fmt.Errorf("core: saving %s document: %w", label, err)
		}
		sv.stored(0, size)
		return nil
	})
}

// putEnv writes the environment document.
func (sv *saving) putEnv(id string, info SaveInfo) error {
	sv.doc.EnvDocID = id
	return sv.putDoc(ColEnvironments, id, "env", captureEnv(info))
}

// layerHashDoc is the per-layer hash document.
type layerHashDoc struct {
	Layers []nn.KeyHash `json:"layers"`
}

// putLayerHashes writes the document a later parameter update diffs
// against.
func (sv *saving) putLayerHashes(id string, hashes []nn.KeyHash) error {
	sv.doc.HashDocID = id
	return sv.putDoc(ColLayerHashes, id, "layerhashes", layerHashDoc{hashes})
}

// loadLayerHashes fetches a per-layer hash document.
func loadLayerHashes(meta docdb.Store, id string) ([]nn.KeyHash, error) {
	doc, err := loadDoc[layerHashDoc](meta, ColLayerHashes, id)
	return doc.Layers, err
}

// commit inserts the root document — the commit point — and returns the
// finished result.
func (sv *saving) commit() (SaveResult, error) {
	err := phase(sv.ctx, "save.doc", nil, func(*obs.Span) error {
		rootDoc, size, err := docToMap(sv.doc)
		if err != nil {
			return err
		}
		sv.res.ID, err = sv.txn.commit(sv.ctx, rootDoc)
		sv.res.MetaBytes += size
		return err
	})
	if err != nil {
		return SaveResult{}, err
	}
	sv.res.StorageBytes = sv.res.MetaBytes + sv.res.FileBytes
	return sv.res, nil
}

// writeSnapshot writes a full model snapshot: model code, all parameters,
// environment and — for a policy whose later saves are parameter updates —
// the per-layer hashes. After the staging record, one wave: the
// environment, the model code and the parameters, the parameters on this
// goroutine followed by the state hash and layer hashes their serialization
// computed the digests for.
func (s *service) writeSnapshot(ctx context.Context, info SaveInfo, plan savePlan) (_ SaveResult, retErr error) {
	sv := s.beginSaving(ctx, info, plan)
	defer func() { sv.txn.end(retErr) }()
	// Model code: the serialized architecture spec.
	codeBytes, err := info.Spec.MarshalText()
	if err != nil {
		return SaveResult{}, err
	}
	codeID := sv.txn.stageBlob()
	paramsID := sv.txn.stageBlob()
	envID := sv.txn.stageDoc(ColEnvironments)
	var hashID string
	if plan.layerHashes {
		hashID = sv.txn.stageDoc(ColLayerHashes)
	}
	if err := sv.txn.writeAhead(); err != nil {
		return SaveResult{}, err
	}

	sd := nn.StateDictOf(info.Net)
	err = together(
		func() error { return sv.putEnv(envID, info) },
		func() (err error) {
			sv.doc.CodeFileRef = codeID
			sv.doc.CodeFileHash, err = sv.putBlob(codeID, "code", codeBytes)
			return err
		},
		func() error {
			if err := sv.putParams(paramsID, sd); err != nil {
				return err
			}
			if info.WithChecksums {
				sv.doc.StateHash = sd.Hash()
			}
			if plan.layerHashes {
				return sv.putLayerHashes(hashID, sd.LayerHashes())
			}
			return nil
		},
	)
	if err != nil {
		return SaveResult{}, err
	}
	return sv.commit()
}

// saveStateDict writes a state dict into the transaction's staged blob id
// and returns the stored size and its frames hash. The dict serializes
// itself straight into the store's writer, on this goroutine, while its
// per-tensor digest cache is filled beside it (nothing is digested when
// the cache already exists); the store hashes no byte and takes the frames
// hash from that cache, so later Hash/LayerHashes calls on sd are free of
// parameter-byte passes too.
//
// A non-nil digested marks a dict written while the save's own digest pass
// over the whole net is still running, to be closed when that pass is
// over: sd then only serializes, and the frames hash, which the store asks
// for once the bytes are durable, is read from the stamps that pass
// recorded: no tensor it stamped is digested twice.
func saveStateDict(txn *saveTxn, id string, sd *nn.StateDict, digested <-chan struct{}) (int64, string, error) {
	src := filestore.HashedSource(sd.WriteToWithDigests, sd.FramesHash)
	if digested != nil {
		src = filestore.HashedSource(sd.WriteTo, func() (string, error) {
			<-digested
			sd.PrecomputeDigests()
			return sd.FramesHash()
		})
	}
	size, hash, err := txn.saveBlob(id, "params", src)
	if err != nil {
		return 0, "", fmt.Errorf("core: saving parameters: %w", err)
	}
	return size, hash, nil
}
