package core

import (
	"context"
	"fmt"

	"repro/internal/merkle"
	"repro/internal/nn"
	"repro/internal/obs"
)

// ParamUpdate is the parameter update approach (PUA, Section 3.2): derived
// models are saved as a base-model reference plus the parameters of the
// layers that changed. Per-layer hashes stored with every model let the
// save path find the changed layers by comparing Merkle trees, so saving a
// derived model never recovers the base model's parameters.
type ParamUpdate struct {
	service
	// UseMerkle selects Merkle-tree layer diffing; when false the diff
	// compares every layer hash pairwise. The flag exists for the ablation
	// benchmark of the Merkle optimization.
	UseMerkle bool
}

// NewParamUpdate creates a parameter update save service.
func NewParamUpdate(stores Stores) *ParamUpdate {
	p := &ParamUpdate{UseMerkle: true}
	p.service = service{stores: stores, name: ParamUpdateApproach, plan: p.plan}
	return p
}

// plan is the PUA policy: an initial model (no BaseID) is a full snapshot
// augmented with the per-layer hash document, a derived model a parameter
// update.
func (p *ParamUpdate) plan(info SaveInfo) savePlan {
	plan := savePlan{kind: updateLink, approach: ParamUpdateApproach, layerHashes: true, pairwiseDiff: !p.UseMerkle}
	if info.BaseID == "" {
		plan.kind = snapshotLink
	}
	return plan
}

// writeUpdate writes a parameter-update link: the tensors of the layers
// whose hashes differ from the base model's, and this model's own layer
// hashes so the next derived save can diff against it.
func (s *service) writeUpdate(ctx context.Context, info SaveInfo, plan savePlan) (_ SaveResult, retErr error) {
	sv := s.beginSaving(ctx, info, plan)
	defer func() { sv.txn.end(retErr) }()
	paramsID := sv.txn.stageBlob()
	envID := sv.txn.stageDoc(ColEnvironments)
	hashID := sv.txn.stageDoc(ColLayerHashes)

	// The staging record goes out while the diff loads the base model's
	// layer hashes (never its parameters) and finds the changed layers
	// against them: the diff only reads, and the record names nothing it
	// decides. The precomputed digest cache makes it the save's only
	// hashing pass: LayerHashes, the state hash and the update subset all
	// read the same per-tensor digests.
	sd := nn.StateDictOf(info.Net)
	var curHashes []nn.KeyHash
	err := together(sv.txn.writeAhead, func() error {
		return phase(ctx, "diff", nil, func(*obs.Span) error {
			baseDoc, err := getModelDoc(s.stores.Meta, info.BaseID)
			if err != nil {
				return err
			}
			if baseDoc.HashDocID == "" {
				return fmt.Errorf("core: base model %s has no layer hashes; was it saved with the parameter update approach?", info.BaseID)
			}
			baseHashes, err := loadLayerHashes(s.stores.Meta, baseDoc.HashDocID)
			if err != nil {
				return err
			}
			sd.PrecomputeDigests()
			curHashes = sd.LayerHashes()
			sv.doc.UpdatedLayers, err = diffLayerHashes(baseHashes, curHashes, !plan.pairwiseDiff)
			return err
		})
	})
	if err != nil {
		return SaveResult{}, err
	}
	if info.WithChecksums {
		sv.doc.StateHash = sd.Hash()
	}
	// The architecture is inherited from the base model, but the
	// environment may differ and is always recorded. The subset inherits
	// the changed layers' digests, so serializing it never re-hashes them.
	err = together(
		func() error { return sv.putEnv(envID, info) },
		func() error { return sv.putLayerHashes(hashID, curHashes) },
		func() error { return sv.putParams(paramsID, sd.SubsetByLayers(sv.doc.UpdatedLayers), true) },
	)
	if err != nil {
		return SaveResult{}, err
	}
	return sv.commit()
}

// diffLayerHashes returns the names of layers whose hashes differ. With
// useMerkle it builds Merkle trees and prunes unchanged subtrees; otherwise
// it compares all leaves pairwise.
func diffLayerHashes(base, cur []nn.KeyHash, useMerkle bool) ([]string, error) {
	if len(base) != len(cur) {
		return nil, fmt.Errorf("core: layer count changed (%d vs %d); parameter updates require an unchanged architecture", len(base), len(cur))
	}
	if !useMerkle {
		var changed []string
		for i := range base {
			if base[i].Key != cur[i].Key {
				return nil, fmt.Errorf("core: layer order changed at %d: %q vs %q", i, base[i].Key, cur[i].Key)
			}
			if base[i].Hash != cur[i].Hash {
				changed = append(changed, cur[i].Key)
			}
		}
		return changed, nil
	}
	baseTree, err := merkle.Build(toLeaves(base))
	if err != nil {
		return nil, err
	}
	curTree, err := merkle.Build(toLeaves(cur))
	if err != nil {
		return nil, err
	}
	res, err := merkle.Diff(baseTree, curTree)
	if err != nil {
		return nil, err
	}
	return res.Changed, nil
}

func toLeaves(hashes []nn.KeyHash) []merkle.Leaf {
	out := make([]merkle.Leaf, len(hashes))
	for i, h := range hashes {
		out[i] = merkle.Leaf{Name: h.Key, Hash: h.Hash}
	}
	return out
}
