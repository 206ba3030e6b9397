package core

import (
	"context"
	"fmt"
	"slices"

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

// earlyWriteFloor is the smallest guessed update, in serialized bytes,
// that a save writes before its diff. A smaller one digests in less time
// than the staging round trip, so writing it early would hide nothing and
// only risk a second write.
const earlyWriteFloor = 1 << 20

// mUpdateRewrites counts parameter updates written twice: the early write
// held other layers than the diff named, so the update was written again.
var mUpdateRewrites = obs.Default().Counter("core.save.update_rewrites")

// writeUpdate writes a parameter-update link: the tensors of the layers
// whose hashes differ from the base model's, and this model's own layer
// hashes so the next derived save can diff against it.
//
// The update is guessed before anything is hashed: the layers written
// since their tensors were last stamped (nn.WrittenLayers). When the guess
// serializes to earlyWriteFloor or more, it is written as soon as the
// staging record is durable, beside the base reads, the digest pass and
// the side-document wave, and its frames hash is read from the digests
// once they exist. It is joined before the root commit, and before any
// rollback. When the diff names exactly the guessed layers, the early
// write is the update; otherwise the update is written again, under the
// same staged id, once the early write has landed. Either way the stored
// bytes are the diff's.
func (s *service) writeUpdate(ctx context.Context, info SaveInfo, plan savePlan) (_ SaveResult, retErr error) {
	sv := s.beginSaving(ctx, info, plan)
	var early *fetch[paramsBlob]
	defer func() {
		if early != nil {
			early.settled() // a rollback must not race a write in flight
		}
		sv.txn.end(retErr)
	}()
	paramsID := sv.txn.stageBlob()
	envID := sv.txn.stageDoc(ColEnvironments)
	hashID := sv.txn.stageDoc(ColLayerHashes)

	// The guess is read before the digest pass makes every stamp current.
	sd := nn.StateDictOf(info.Net)
	guess := nn.WrittenLayers(info.Net)
	guessed := sd.SubsetByLayers(guess)
	digested := make(chan struct{})

	// One wave of three things that only read: the staging record (and,
	// once it is durable, the early write), the base model's layer hashes
	// (never its parameters), and the save's one digest pass, which
	// re-hashes only the tensors written since their last save. The record
	// names nothing the diff decides. LayerHashes, the state hash and the
	// diff then read the same per-tensor digests.
	var baseHashes []nn.KeyHash
	err := together(
		func() error {
			if err := sv.txn.writeAhead(); err != nil {
				return err
			}
			if guessed.SerializedSize() >= earlyWriteFloor {
				early = goFetch(func() (paramsBlob, error) { return sv.writeParams(paramsID, guessed, digested) })
			}
			return nil
		},
		func() error {
			return phase(ctx, "diff.base", nil, func(*obs.Span) (err error) {
				baseHashes, err = s.baseLayerHashes(info.BaseID)
				return err
			})
		},
		func() error {
			defer close(digested)
			return phase(ctx, "digest", nil, func(*obs.Span) error { sd.PrecomputeDigests(); return nil })
		},
	)
	if err != nil {
		return SaveResult{}, err
	}
	curHashes := sd.LayerHashes()
	err = phase(ctx, "diff", nil, func(*obs.Span) (err error) {
		sv.doc.UpdatedLayers, err = diffLayerHashes(baseHashes, curHashes, !plan.pairwiseDiff)
		return err
	})
	if err != nil {
		return SaveResult{}, err
	}
	if info.WithChecksums {
		sv.doc.StateHash = sd.Hash()
	}
	// The architecture is inherited from the base model, but the
	// environment may differ and is always recorded. The update's tensors
	// were stamped by the digest pass above, so writing it digests none.
	err = together(
		func() error { return sv.putEnv(envID, info) },
		func() error { return sv.putLayerHashes(hashID, curHashes) },
		func() error {
			if early != nil {
				b, err := early.wait()
				if err != nil {
					return err
				}
				if slices.Equal(guess, sv.doc.UpdatedLayers) {
					sv.adoptParams(paramsID, b)
					return nil
				}
				mUpdateRewrites.Inc()
			}
			return sv.putParams(paramsID, sd.SubsetByLayers(sv.doc.UpdatedLayers))
		},
	)
	if err != nil {
		return SaveResult{}, err
	}
	return sv.commit()
}

// baseLayerHashes reads the layer hashes of base, the model a parameter
// update diffs against. The base's layer-hash document is read beside its
// root document, under the base's own id; the root document's hash_doc_id
// decides, so a base saved before side documents shared the root id is
// read again under the id it names, and the early read is dropped unseen.
func (s *service) baseLayerHashes(base string) ([]nn.KeyHash, error) {
	meta := s.stores.Meta
	var (
		doc      modelDoc
		early    []nn.KeyHash
		earlyErr error
	)
	err := together(
		func() (err error) { doc, err = getModelDoc(meta, base); return err },
		func() error { early, earlyErr = loadLayerHashes(meta, base); return nil },
	)
	switch {
	case err != nil:
		return nil, err
	case doc.HashDocID == "":
		return nil, fmt.Errorf("core: base model %s has no layer hashes; was it saved with the parameter update approach?", base)
	case doc.HashDocID == base:
		return early, earlyErr
	}
	return loadLayerHashes(meta, doc.HashDocID)
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
