package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/docdb"
	"repro/internal/environment"
	"repro/internal/filestore"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/obs"
)

// Baseline is the baseline approach (BA, Section 3.1): it saves every model
// as a complete independent snapshot and recovers it without touching any
// base model. It is the reference point the advanced approaches are
// measured against, and also the save path all approaches use for an
// initial model.
type Baseline struct {
	stores Stores
	cache  *RecoveryCache
}

// NewBaseline creates a baseline save service over the given stores.
func NewBaseline(stores Stores) *Baseline {
	return &Baseline{stores: stores}
}

var _ SaveService = (*Baseline)(nil)
var _ RecoveryCacher = (*Baseline)(nil)

// SetRecoveryCache memoizes recoveries through c (nil disables).
func (b *Baseline) SetRecoveryCache(c *RecoveryCache) { b.cache = c }

// Approach implements SaveService.
func (b *Baseline) Approach() string { return BaselineApproach }

// Save implements SaveService: it persists metadata (environment, base
// reference, optional checksums) as JSON documents and the model code and
// serialized parameters as files.
func (b *Baseline) Save(info SaveInfo) (SaveResult, error) {
	return b.SaveCtx(context.Background(), info)
}

// SaveCtx is Save with context propagation: a tracer carried by ctx
// receives a "save.baseline" root span with per-phase children.
func (b *Baseline) SaveCtx(ctx context.Context, info SaveInfo) (SaveResult, error) {
	ctx, sp := obs.StartSpan(ctx, "save.baseline")
	defer sp.End()
	start := time.Now()
	res, err := saveSnapshot(ctx, b.stores, info, BaselineApproach, false)
	if err != nil {
		noteSave(res, err)
		return SaveResult{}, err
	}
	res.Duration = time.Since(start)
	sp.Arg("model", res.ID)
	noteSave(res, nil)
	return res, nil
}

var _ ContextService = (*Baseline)(nil)
var _ ContextStateRecoverer = (*Baseline)(nil)

// saveSnapshot writes a full model snapshot. It is shared by the baseline
// approach and by the first (underived) save of the other approaches.
// withLayerHashes additionally persists the per-layer hash document the
// parameter update approach needs for cheap diffing. The whole save runs
// as one transaction (see txn.go): every identifier is staged in a
// write-ahead commit record before any artifact is written, the root
// document insert is the commit point, and any error on the way out rolls
// the staged artifacts back.
func saveSnapshot(ctx context.Context, stores Stores, info SaveInfo, approach string, withLayerHashes bool) (res SaveResult, retErr error) {
	res = SaveResult{Approach: approach}

	sd := nn.StateDictOf(info.Net)
	doc := modelDoc{
		Approach:          approach,
		BaseID:            info.BaseID,
		TrainablePrefixes: nn.TrainablePrefixes(info.Net),
	}

	txn := beginSave(stores, ColModels)
	defer func() { txn.end(retErr) }()
	codeID := txn.stageBlob()
	paramsID := txn.stageBlob()
	envID := txn.stageDoc(ColEnvironments)
	var hashID string
	if withLayerHashes {
		hashID = txn.stageDoc(ColLayerHashes)
	}
	if err := txn.writeAhead(); err != nil {
		return SaveResult{}, err
	}

	// Model code: the serialized architecture spec.
	_, spCode := obs.StartSpan(ctx, "save.code")
	codeBytes, err := info.Spec.MarshalText()
	if err != nil {
		spCode.End()
		return SaveResult{}, err
	}
	codeSize, codeHash, err := txn.saveBlob(codeID, "code", bytes.NewReader(codeBytes))
	spCode.End()
	if err != nil {
		return SaveResult{}, fmt.Errorf("core: saving model code: %w", err)
	}
	doc.CodeFileRef = codeID
	doc.CodeFileHash = codeHash
	res.FileBytes += codeSize

	// Serialized parameters, streamed into the file store. This is the one
	// pass over all parameter bytes: when checksums or layer hashes are
	// wanted the serializer tees the staged bytes into per-tensor digests,
	// and the file store tees its write into the blob content hash — the
	// state hash and layer hashes below read the digest cache instead of
	// re-hashing tensors.
	needDigests := info.WithChecksums || withLayerHashes
	_, spParams := obs.StartSpan(ctx, "save.params")
	paramsSize, paramsHash, err := saveStateDict(txn, paramsID, sd, needDigests)
	spParams.End()
	if err != nil {
		return SaveResult{}, err
	}
	doc.ParamsFileRef = paramsID
	doc.ParamsFileHash = paramsHash
	res.FileBytes += paramsSize

	if info.WithChecksums {
		doc.StateHash = sd.Hash()
	}

	// Environment document.
	_, spEnv := obs.StartSpan(ctx, "save.env")
	env := captureEnv(info)
	envDoc, envSize, err := docToMap(env)
	if err != nil {
		spEnv.End()
		return SaveResult{}, err
	}
	err = txn.putDoc(ColEnvironments, envID, "env", envDoc)
	spEnv.End()
	if err != nil {
		return SaveResult{}, fmt.Errorf("core: saving environment: %w", err)
	}
	doc.EnvDocID = envID
	res.MetaBytes += envSize

	// Per-layer hashes for PUA saves.
	if withLayerHashes {
		_, spHashes := obs.StartSpan(ctx, "save.layerhashes")
		hashSize, err := saveLayerHashes(txn, hashID, sd.LayerHashes())
		spHashes.End()
		if err != nil {
			return SaveResult{}, err
		}
		doc.HashDocID = hashID
		res.MetaBytes += hashSize
	}

	// Root model document: the commit point.
	_, spDoc := obs.StartSpan(ctx, "save.doc")
	rootDoc, rootSize, err := docToMap(doc)
	if err != nil {
		spDoc.End()
		return SaveResult{}, err
	}
	id, err := txn.commit(ctx, rootDoc)
	spDoc.End()
	if err != nil {
		return SaveResult{}, err
	}
	res.MetaBytes += rootSize
	res.ID = id
	res.StorageBytes = res.MetaBytes + res.FileBytes
	return res, nil
}

// saveStateDict streams a state dict into the transaction's staged blob id
// and returns the stored size and the content hash the store computed
// while writing. With withDigests the serializer additionally populates
// sd's per-tensor digest cache from the same pass (a no-op when the cache
// already exists), so subsequent Hash/LayerHashes calls on sd are free of
// parameter-byte passes. The pipe writer goroutine finishes before the
// store returns (it drains the pipe to EOF), so the cache is safely
// visible to the caller.
func saveStateDict(txn *saveTxn, id string, sd *nn.StateDict, withDigests bool) (int64, string, error) {
	pr, pw := io.Pipe()
	defer pr.Close() // releases the writer if the store stopped reading early
	go func() {
		var err error
		if withDigests {
			_, err = sd.WriteToWithDigests(pw)
		} else {
			_, err = sd.WriteTo(pw)
		}
		pw.CloseWithError(err)
	}()
	size, hash, err := txn.saveBlob(id, "params", pr)
	if err != nil {
		return 0, "", fmt.Errorf("core: saving parameters: %w", err)
	}
	return size, hash, nil
}

// loadStateDictBytes fetches a parameter file fully into memory. Loading
// and deserialization are deliberately separate steps so the recover-time
// breakdown can attribute them like Figure 12 does.
func loadStateDictBytes(files filestore.Blobs, id string) ([]byte, error) {
	b, err := files.ReadAll(id)
	if err != nil {
		return nil, fmt.Errorf("core: loading parameters %s: %w", id, err)
	}
	return b, nil
}

// Recover implements SaveService. The baseline explicitly does not follow
// base-model references: every model is self-contained.
func (b *Baseline) Recover(id string, opts RecoverOptions) (*RecoveredModel, error) {
	return b.RecoverCtx(context.Background(), id, opts)
}

// RecoverCtx is Recover with context propagation.
func (b *Baseline) RecoverCtx(ctx context.Context, id string, opts RecoverOptions) (*RecoveredModel, error) {
	rs, err := b.RecoverStateCtx(ctx, id, opts)
	if err != nil {
		return nil, err
	}
	return modelFromState(rs)
}

// RecoverState implements StateRecoverer: the state-level recovery the
// serving tier uses. A cache hit is O(1) — no net instantiation, no
// clone, no hashing pass (unless the cache is Paranoid).
func (b *Baseline) RecoverState(id string, opts RecoverOptions) (*RecoveredState, error) {
	return b.RecoverStateCtx(context.Background(), id, opts)
}

// RecoverStateCtx is RecoverState with context propagation: a tracer
// carried by ctx receives a "recover.baseline" root span whose children
// break the recovery into its phases (cache.get, fetch, decode, env.check,
// seal, hash.verify, cache.put).
func (b *Baseline) RecoverStateCtx(ctx context.Context, id string, opts RecoverOptions) (*RecoveredState, error) {
	ctx, sp := obs.StartSpan(ctx, "recover.baseline")
	sp.Arg("model", id)
	defer sp.End()
	cache := cacheFor(b.cache, opts)
	rs, err := recoverCoalesced(cache, id, opts, func() (*RecoveredState, error) {
		return recoverSnapshotState(ctx, b.stores, cache, id, opts)
	})
	if err != nil {
		noteRecover(RecoverTiming{}, err)
		return nil, err
	}
	noteRecover(rs.Timing, nil)
	return rs, nil
}

var _ StateRecoverer = (*Baseline)(nil)

// cacheFor resolves the effective cache for one recovery: the service's
// cache, or nil when the options bypass it.
func cacheFor(c *RecoveryCache, opts RecoverOptions) *RecoveryCache {
	if opts.NoCache {
		return nil
	}
	return c
}

// rebuildFromCache turns a cache hit into a RecoveredModel: instantiate
// the architecture, load the shared state (LoadInto copies, so the net
// never aliases the cache), reapply freezing. Checksum verification on a
// hit is the O(1) insert-hash comparison; per-hit re-hashing of the
// stored bytes is the Paranoid cache's job, inside Get itself.
func rebuildFromCache(id string, cr CachedRecovery, opts RecoverOptions, timing RecoverTiming) (*RecoveredModel, error) {
	rs, err := stateFromCache(id, cr, opts, timing)
	if err != nil {
		return nil, err
	}
	return modelFromState(rs)
}

// recoverSnapshot rebuilds a model from a full snapshot document. It is
// also the recursion anchor for the other approaches.
func recoverSnapshot(ctx context.Context, stores Stores, id string, opts RecoverOptions) (*RecoveredModel, error) {
	return recoverSnapshotCached(ctx, stores, nil, id, opts)
}

// recoverSnapshotCached is recoverSnapshot with an optional recovery
// cache: a hit skips the store entirely; a miss loads code and parameter
// blobs concurrently, recovers, and populates the cache.
func recoverSnapshotCached(ctx context.Context, stores Stores, cache *RecoveryCache, id string, opts RecoverOptions) (*RecoveredModel, error) {
	rs, err := recoverSnapshotState(ctx, stores, cache, id, opts)
	if err != nil {
		return nil, err
	}
	return modelFromState(rs)
}

// recoverSnapshotState is the state-level snapshot recovery. A cache hit
// returns a shared view without touching the store. A miss opens the
// parameter blob mapped (mmap when available — the bytes page in lazily
// and tensor data aliases the mapping instead of being copied out),
// decodes, seals, verifies the checksum once, and populates the cache
// zero-copy; the caller receives a copy-on-write view of the same sealed
// state.
func recoverSnapshotState(ctx context.Context, stores Stores, cache *RecoveryCache, id string, opts RecoverOptions) (*RecoveredState, error) {
	var timing RecoverTiming

	// Load: documents and file bytes. A cache hit stands in for the whole
	// load phase; on a miss the code read and the parameter mapping run
	// concurrently while the environment document round-trips.
	t0 := time.Now()
	if cache != nil {
		_, spCache := obs.StartSpan(ctx, "cache.get")
		cr, ok := cache.Get(id)
		spCache.End()
		if ok {
			timing.Load = time.Since(t0)
			return stateFromCache(id, cr, opts, timing)
		}
	}
	_, spFetch := obs.StartSpan(ctx, "fetch")
	doc, err := getModelDoc(stores.Meta, id)
	if err != nil {
		spFetch.End()
		return nil, err
	}
	if doc.ParamsFileRef == "" {
		spFetch.End()
		return nil, fmt.Errorf("core: model %s has no parameter snapshot (approach %s)", id, doc.Approach)
	}
	codeF := fetchBlob(stores.Files, doc.CodeFileRef)
	paramsF := fetchMapped(stores.Files, doc.ParamsFileRef)
	env, err := envFromDoc(stores.Meta, doc.EnvDocID)
	if err != nil {
		spFetch.End()
		return nil, err
	}
	codeBytes, err := codeF.wait()
	if err != nil {
		spFetch.End()
		return nil, fmt.Errorf("core: loading model code: %w", err)
	}
	params, err := paramsF.wait()
	spFetch.End()
	if err != nil {
		return nil, fmt.Errorf("core: loading parameters %s: %w", doc.ParamsFileRef, err)
	}
	timing.Load = time.Since(t0)

	// Recover: deserialize (parallel tensor decode, or zero-copy aliasing
	// over the mapping) and parse the architecture.
	t1 := time.Now()
	_, spDecode := obs.StartSpan(ctx, "decode")
	spec, err := models.ParseSpec(codeBytes)
	if err != nil {
		spDecode.End()
		return nil, err
	}
	sd, err := nn.ReadStateDictMapped(params.Bytes(), params)
	spDecode.End()
	if err != nil {
		return nil, err
	}
	timing.Recover = time.Since(t1)

	// Check environment.
	if opts.CheckEnv {
		t2 := time.Now()
		_, spEnv := obs.StartSpan(ctx, "env.check")
		err := environment.Check(env)
		spEnv.End()
		if err != nil {
			return nil, err
		}
		timing.CheckEnv = time.Since(t2)
	}

	// Seal before verifying when the state is about to be cached: sealing
	// computes the per-entry digests with the parallel worker pool, and
	// both the checksum below and the cache's insert hash reuse that one
	// pass (previously the verify and the insert each paid their own).
	if cache != nil {
		t4 := time.Now()
		_, spSeal := obs.StartSpan(ctx, "seal")
		sd.Seal()
		spSeal.End()
		timing.Recover += time.Since(t4)
	}

	// Verify the decoded state against the stored checksum. The hash of
	// the serialized-order dict is identical to the hash of the
	// instantiated net's dict (same keys, same order, same bytes), so
	// verification no longer needs a net at all.
	if opts.VerifyChecksums && doc.StateHash != "" {
		t3 := time.Now()
		_, spVerify := obs.StartSpan(ctx, "hash.verify")
		got := sd.Hash()
		spVerify.End()
		if got != doc.StateHash {
			return nil, fmt.Errorf("core: checksum mismatch for model %s", id)
		}
		timing.Verify = time.Since(t3)
	}

	state := sd
	if cache != nil {
		t4 := time.Now()
		_, spPut := obs.StartSpan(ctx, "cache.put")
		cache.Put(id, CachedRecovery{
			Spec: spec, BaseID: doc.BaseID, State: sd, Env: env,
			TrainablePrefixes: doc.TrainablePrefixes, StateHash: doc.StateHash,
		})
		// Hand the caller a view, not the cached dict itself: mutating
		// the owner in place would be visible through the cache.
		state = sd.Share()
		spPut.End()
		timing.Recover += time.Since(t4)
	}

	return &RecoveredState{
		ID: id, Spec: spec, State: state, BaseID: doc.BaseID, Env: env,
		TrainablePrefixes: doc.TrainablePrefixes, StateHash: doc.StateHash,
		Timing: timing,
	}, nil
}

// restoreTrainable reapplies the recorded layer freezing.
func restoreTrainable(net nn.Module, prefixes []string) {
	if len(prefixes) == 0 {
		return
	}
	nn.FreezeAllExcept(net, prefixes...)
}

// saveLayerHashes persists the per-layer hash list as one document under
// the transaction's staged id.
func saveLayerHashes(txn *saveTxn, id string, hashes []nn.KeyHash) (int64, error) {
	doc, size, err := docToMap(struct {
		Layers []nn.KeyHash `json:"layers"`
	}{Layers: hashes})
	if err != nil {
		return 0, err
	}
	if err := txn.putDoc(ColLayerHashes, id, "layerhashes", doc); err != nil {
		return 0, fmt.Errorf("core: saving layer hashes: %w", err)
	}
	return size, nil
}

// loadLayerHashes fetches a per-layer hash document.
func loadLayerHashes(meta docdb.Store, id string) ([]nn.KeyHash, error) {
	raw, err := meta.Get(ColLayerHashes, id)
	if err != nil {
		return nil, fmt.Errorf("core: loading layer hashes %s: %w", id, err)
	}
	var doc struct {
		Layers []nn.KeyHash `json:"layers"`
	}
	if err := mapToDoc(raw, &doc); err != nil {
		return nil, err
	}
	return doc.Layers, nil
}
