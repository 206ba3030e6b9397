package core

import (
	"fmt"
	"time"

	"repro/internal/environment"
	"repro/internal/models"
	"repro/internal/nn"
)

// State-level recovery — the serving tier's entry point. Recover returns
// a freshly instantiated net, which inherently costs O(model size) in
// allocation and parameter copying even on a cache hit. RecoverState
// stops one layer earlier: it returns the recovered state dict itself,
// sealed and shared, so a hot model costs O(1) per request — the serve
// loop reuses its instantiated net as long as the returned State reports
// the same Version token as the previous one (sealed dicts never mutate
// in place, so the shared owner's identity is a version tag).

// RecoveredState is the state-level result of a recovery: everything
// needed to instantiate the model, without the instantiation.
type RecoveredState struct {
	ID   string
	Spec models.Spec
	// State is the recovered state dict. On a cache hit it is a sealed
	// copy-on-write view of the cached state: reading is free, mutating
	// through the dict API detaches privately. Direct Data() writes on a
	// sealed state are forbidden (see nn.StateDict.Seal).
	State *nn.StateDict
	// BaseID is the recovered model's base reference (empty for roots).
	BaseID string
	// Env is the recorded execution environment.
	Env environment.Info
	// TrainablePrefixes restores layer freezing on an instantiated net.
	TrainablePrefixes []string
	// StateHash is the save-time checksum ("" when saved without).
	StateHash string
	// CacheHit reports whether the state came from the recovery cache.
	CacheHit bool
	// Timing is the TTR breakdown for this recovery.
	Timing RecoverTiming
}

// Instantiate builds a fresh net from the recovered state: architecture
// construction, parameter copy-in, layer freezing. The architecture is
// built without weight initialization — LoadInto is strict (every key,
// every shape), so it overwrites whatever an initializer would have drawn
// — and without gradient tensors, which the net allocates if it is ever
// trained. The net owns its tensors — it never aliases the recovered
// (possibly shared) state.
func (rs *RecoveredState) Instantiate() (nn.Module, error) {
	net, err := rs.Spec.Build()
	if err != nil {
		return nil, err
	}
	if err := rs.State.LoadInto(net); err != nil {
		return nil, fmt.Errorf("core: restoring recovered state for %s: %w", rs.ID, err)
	}
	restoreTrainable(net, rs.TrainablePrefixes)
	return net, nil
}

// StateRecoverer is implemented by save services that can recover at the
// state level. All four services (BA, PUA, MPA, adaptive) do.
type StateRecoverer interface {
	RecoverState(id string, opts RecoverOptions) (*RecoveredState, error)
}

// stateFromCache turns a cache hit into a RecoveredState. This is the
// O(1) path: cr.State is already a shared view, environment checking is
// a field comparison, and checksum verification compares the document
// hash against the hash the cache verified at insert (re-derived from
// the bytes on this very hit when the cache is Paranoid).
func stateFromCache(id string, cr CachedRecovery, opts RecoverOptions, timing RecoverTiming) (*RecoveredState, error) {
	if opts.CheckEnv {
		t2 := time.Now()
		if err := environment.Check(cr.Env); err != nil {
			return nil, err
		}
		timing.CheckEnv += time.Since(t2)
	}
	if opts.VerifyChecksums && cr.StateHash != "" && cr.VerifiedHash != cr.StateHash {
		return nil, fmt.Errorf("core: checksum mismatch for model %s", id)
	}
	return &RecoveredState{
		ID: id, Spec: cr.Spec, State: cr.State, BaseID: cr.BaseID, Env: cr.Env,
		TrainablePrefixes: cr.TrainablePrefixes, StateHash: cr.StateHash,
		CacheHit: true, Timing: timing,
	}, nil
}

// modelFromState instantiates a RecoveredState into the net-level
// RecoveredModel the SaveService interface promises, folding the
// instantiation into the recover bucket.
func modelFromState(rs *RecoveredState) (*RecoveredModel, error) {
	t1 := time.Now()
	net, err := rs.Instantiate()
	if err != nil {
		return nil, err
	}
	rs.Timing.Recover += time.Since(t1)
	return &RecoveredModel{ID: rs.ID, Spec: rs.Spec, Net: net, BaseID: rs.BaseID, Timing: rs.Timing}, nil
}

// stateOfRecovered wraps a net-level recovery (MPA and adaptive recover
// by replaying onto a live net) into a state-level result. The net was
// built by this recovery and is discarded by the caller, so its state
// dict transfers without cloning. doc supplies the metadata a
// RecoveredModel does not carry.
func stateOfRecovered(rec *RecoveredModel, doc modelDoc, env environment.Info) *RecoveredState {
	return &RecoveredState{
		ID: rec.ID, Spec: rec.Spec, State: nn.StateDictOf(rec.Net), BaseID: rec.BaseID,
		Env: env, TrainablePrefixes: doc.TrainablePrefixes, StateHash: doc.StateHash,
		Timing: rec.Timing,
	}
}
