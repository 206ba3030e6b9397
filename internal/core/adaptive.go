package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/obs"
)

// Adaptive is the heuristic approach sketched in the paper's discussion
// (Section 4.7, "Adaptive Approach"): per saved model it picks whichever of
// BA, PUA, and MPA is expected to consume the least storage. The heuristic
// follows the paper's observation that "the BA and the PUA mainly depend on
// the model parameters, whereas the MPA primarily depends on the dataset":
//
//   - no base model            → full snapshot (BA logic, via PUA so layer
//     hashes exist for future updates)
//   - provenance available and dataset smaller than the trainable
//     parameters → MPA
//   - otherwise                → PUA
//
// Recovery dispatches on the approach recorded in the model's document, so
// chains may freely mix approaches.
type Adaptive struct {
	stores Stores
	pua    *ParamUpdate
	mpa    *Provenance
	cache  *RecoveryCache
}

// NewAdaptive creates an adaptive save service.
func NewAdaptive(stores Stores) *Adaptive {
	return &Adaptive{stores: stores, pua: NewParamUpdate(stores), mpa: NewProvenance(stores)}
}

var _ SaveService = (*Adaptive)(nil)
var _ RecoveryCacher = (*Adaptive)(nil)

// SetRecoveryCache memoizes recoveries through c (nil disables). The
// recursive recovery checks the cache at every chain level, so a sweep
// over a mixed-approach chain reuses each recovered prefix whether the
// next link merges parameters or replays training.
func (a *Adaptive) SetRecoveryCache(c *RecoveryCache) { a.cache = c }

// Approach implements SaveService.
func (a *Adaptive) Approach() string { return "adaptive" }

// SetDatasetResolver wires an external dataset manager into the underlying
// provenance service: derived saves then store dataset references from
// ProvenanceRecord.SetExternalDatasetRef, and recovery resolves them
// through fn.
func (a *Adaptive) SetDatasetResolver(fn func(ref string) (*dataset.Dataset, error)) {
	a.mpa.DatasetByReference = true
	a.mpa.ResolveDataset = fn
}

// Save implements SaveService by delegating to the approach the heuristic
// selects. Every save also records the layer hashes the PUA needs, so any
// later save can still choose the PUA against this base.
func (a *Adaptive) Save(info SaveInfo) (SaveResult, error) {
	return a.SaveCtx(context.Background(), info)
}

var _ ContextService = (*Adaptive)(nil)
var _ ContextStateRecoverer = (*Adaptive)(nil)

// SaveCtx is Save with context propagation: the span tree shows which
// approach the heuristic delegated to ("save.pua" or "save.mpa").
func (a *Adaptive) SaveCtx(ctx context.Context, info SaveInfo) (SaveResult, error) {
	if info.BaseID == "" {
		return a.pua.SaveCtx(ctx, info)
	}
	if info.Provenance != nil && info.Provenance.ds != nil {
		datasetBytes := info.Provenance.ds.Spec.SizeBytes()
		trainableBytes := int64(nn.NumTrainableParams(info.Net)) * 4
		if datasetBytes < trainableBytes {
			// MPA wins on storage, but the next derived save may still use
			// the PUA: it needs this model's layer hashes, which MPA does
			// not store. Carry them into MPA's transaction so they commit
			// (or roll back) atomically with the rest of the save.
			info.extraLayerHashes = nn.StateDictOf(info.Net).LayerHashes()
			return a.mpa.SaveCtx(ctx, info)
		}
	}
	return a.pua.SaveCtx(ctx, info)
}

// Recover implements SaveService. Because the adaptive approach may mix
// approaches along one derivation chain, it recovers recursively and applies
// each link according to how that link was saved: full snapshots anchor the
// recursion, parameter-update links merge their changed layers into the
// recovered base, and provenance links re-execute their recorded training.
func (a *Adaptive) Recover(id string, opts RecoverOptions) (*RecoveredModel, error) {
	return a.RecoverCtx(context.Background(), id, opts)
}

// RecoverCtx is Recover with context propagation: a tracer carried by ctx
// receives a "recover.adaptive" root span whose children follow the mixed
// chain link by link.
func (a *Adaptive) RecoverCtx(ctx context.Context, id string, opts RecoverOptions) (*RecoveredModel, error) {
	ctx, sp := obs.StartSpan(ctx, "recover.adaptive")
	sp.Arg("model", id)
	defer sp.End()
	rec, err := a.recover(ctx, id, opts, cacheFor(a.cache, opts), a.mpa.newDatasetMemo(), 0, false)
	if err != nil {
		noteRecover(RecoverTiming{}, err)
		return nil, err
	}
	noteRecover(rec.Timing, nil)
	return rec, nil
}

var _ StateRecoverer = (*Adaptive)(nil)

// RecoverState implements StateRecoverer. A cache hit for the requested
// model is O(1); a miss runs the recursive net-level recovery and wraps
// its result, re-reading only the target's metadata documents.
func (a *Adaptive) RecoverState(id string, opts RecoverOptions) (*RecoveredState, error) {
	return a.RecoverStateCtx(context.Background(), id, opts)
}

// RecoverStateCtx is RecoverState with context propagation.
func (a *Adaptive) RecoverStateCtx(ctx context.Context, id string, opts RecoverOptions) (*RecoveredState, error) {
	ctx, sp := obs.StartSpan(ctx, "recover.adaptive")
	sp.Arg("model", id)
	defer sp.End()
	rs, err := recoverCoalesced(cacheFor(a.cache, opts), id, opts, func() (*RecoveredState, error) {
		return a.recoverStateCtx(ctx, id, opts)
	})
	if err != nil {
		noteRecover(RecoverTiming{}, err)
		return nil, err
	}
	noteRecover(rs.Timing, nil)
	return rs, nil
}

func (a *Adaptive) recoverStateCtx(ctx context.Context, id string, opts RecoverOptions) (*RecoveredState, error) {
	cache := cacheFor(a.cache, opts)
	t0 := time.Now()
	if cache != nil {
		_, spCache := obs.StartSpan(ctx, "cache.get")
		cr, ok := cache.Get(id)
		spCache.End()
		if ok {
			return stateFromCache(id, cr, opts, RecoverTiming{Load: time.Since(t0)})
		}
	}
	rec, err := a.recover(ctx, id, opts, cache, a.mpa.newDatasetMemo(), 0, true)
	if err != nil {
		return nil, err
	}
	t5 := time.Now()
	_, spDoc := obs.StartSpan(ctx, "fetch")
	doc, err := getModelDoc(a.stores.Meta, id)
	if err != nil {
		spDoc.End()
		return nil, err
	}
	env, err := envFromDoc(a.stores.Meta, doc.EnvDocID)
	spDoc.End()
	if err != nil {
		return nil, err
	}
	rec.Timing.Load += time.Since(t5)
	return stateOfRecovered(rec, doc, env), nil
}

// recover is the recursive recovery. The dataset memo is shared across the
// whole chain so repeated provenance links load each archive once; the
// cache is consulted at every level and populated only with the requested
// model (depth 0) — intermediate levels are memoized when they are
// themselves recovered directly, which is exactly the U4 sweep pattern.
// leafChecked means the depth-0 caller (RecoverState) already probed the
// cache for id, so probing again would double-count the miss.
//
// The checksum is verified once, at the requested model — or, when that
// was saved without one, at its nearest ancestor that has one: every
// link's state feeds the next, so a corrupt ancestor still fails the check
// below it, and hashing the full state at each link only multiplied the
// verify cost by the chain depth. The model that verifies clears
// VerifyChecksums for the recursion beneath it.
func (a *Adaptive) recover(ctx context.Context, id string, opts RecoverOptions, cache *RecoveryCache, dm *datasetMemo, depth int, leafChecked bool) (*RecoveredModel, error) {
	t0 := time.Now()
	if cache != nil && !(depth == 0 && leafChecked) {
		_, spCache := obs.StartSpan(ctx, "cache.get")
		cr, ok := cache.Get(id)
		spCache.End()
		if ok {
			return rebuildFromCache(id, cr, opts, RecoverTiming{Load: time.Since(t0)})
		}
	}
	doc, err := getModelDoc(a.stores.Meta, id)
	if err != nil {
		return nil, err
	}
	var rec *RecoveredModel
	switch {
	case doc.CodeFileRef != "": // full snapshot anchors the recursion
		if rec, err = recoverSnapshot(ctx, a.stores, id, opts); err != nil {
			return nil, err
		}
	case doc.BaseID == "":
		return nil, fmt.Errorf("core: derived model %s has no base reference", id)
	default:
		baseOpts := opts
		if doc.StateHash != "" {
			baseOpts.VerifyChecksums = false
		}
		if rec, err = a.recover(ctx, doc.BaseID, baseOpts, cache, dm, depth+1, false); err != nil {
			return nil, err
		}
		switch {
		case doc.ParamsFileRef != "": // parameter-update link
			t0 := time.Now()
			_, spFetch := obs.StartSpan(ctx, "fetch")
			raw, err := loadStateDictBytes(a.stores.Files, doc.ParamsFileRef)
			spFetch.End()
			if err != nil {
				return nil, err
			}
			rec.Timing.Load += time.Since(t0)
			t1 := time.Now()
			_, spDecode := obs.StartSpan(ctx, "decode")
			update, err := nn.ReadStateDictBytes(raw)
			if err != nil {
				spDecode.End()
				return nil, err
			}
			err = applyUpdateToNet(rec.Net, update)
			spDecode.End()
			if err != nil {
				return nil, err
			}
			restoreTrainable(rec.Net, doc.TrainablePrefixes)
			rec.Timing.Recover += time.Since(t1)
		case doc.ServiceDocID != "": // provenance link
			timing, err := a.mpa.applyTrainingLink(ctx, id, doc, rec.Net, opts, dm)
			if err != nil {
				return nil, err
			}
			rec.Timing.add(timing)
		default:
			return nil, fmt.Errorf("core: model %s has neither parameters nor provenance", id)
		}
		if opts.VerifyChecksums && doc.StateHash != "" {
			t3 := time.Now()
			_, spVerify := obs.StartSpan(ctx, "hash.verify")
			got := nn.StateDictOf(rec.Net).Hash()
			spVerify.End()
			if got != doc.StateHash {
				return nil, fmt.Errorf("core: checksum mismatch for model %s", id)
			}
			rec.Timing.Verify += time.Since(t3)
		}
		rec.ID = id
		rec.BaseID = doc.BaseID
	}

	if depth == 0 && cache != nil {
		// The environment document is loaded solely to complete the cache
		// entry (a hit must still honor CheckEnv); its failure only costs
		// the memoization.
		t4 := time.Now()
		_, spPut := obs.StartSpan(ctx, "cache.put")
		if env, err := envFromDoc(a.stores.Meta, doc.EnvDocID); err == nil {
			cache.Put(id, CachedRecovery{
				Spec: rec.Spec, BaseID: doc.BaseID, State: nn.StateDictOf(rec.Net), Env: env,
				TrainablePrefixes: doc.TrainablePrefixes, StateHash: doc.StateHash,
			})
		}
		spPut.End()
		rec.Timing.Recover += time.Since(t4)
	}
	return rec, nil
}

// applyUpdateToNet copies the update's tensors into the matching state
// entries of net, leaving all other state untouched.
func applyUpdateToNet(net nn.Module, update *nn.StateDict) error {
	model := nn.StateDictOf(net)
	for _, e := range update.Entries() {
		dst, ok := model.Get(e.Key)
		if !ok {
			return fmt.Errorf("core: update contains unknown tensor %q", e.Key)
		}
		if !dst.SameShape(e.Tensor) {
			return fmt.Errorf("core: update shape mismatch for %q", e.Key)
		}
		copy(dst.Data(), e.Tensor.Data())
	}
	return nil
}
