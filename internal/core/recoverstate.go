package core

import (
	"context"
	"fmt"

	"repro/internal/environment"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/obs"
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
	// net is the net a recovery that replayed training ended up with, when
	// State is that net's own dict (no cache took it): Recover returns it
	// instead of building a second one.
	net nn.Module
}

// Instantiate builds a fresh net from the recovered state: architecture
// construction, parameter copy-in, layer freezing. The architecture is
// built without weight initialization — LoadInto is strict (every key,
// every shape), so it overwrites whatever an initializer would have drawn
// — and without gradient tensors, which the net allocates if it is ever
// trained. The net owns its tensors — it never aliases the recovered
// (possibly shared) state.
func (rs *RecoveredState) Instantiate() (nn.Module, error) {
	net, err := instantiate(rs.Spec, rs.State, rs.ID)
	if err != nil {
		return nil, err
	}
	restoreTrainable(net, rs.TrainablePrefixes)
	return net, nil
}

// instantiate builds spec's architecture and copies state into it.
func instantiate(spec models.Spec, state *nn.StateDict, id string) (nn.Module, error) {
	net, err := spec.Build()
	if err != nil {
		return nil, err
	}
	if err := state.LoadInto(net); err != nil {
		return nil, fmt.Errorf("core: restoring recovered state for %s: %w", id, err)
	}
	return net, nil
}

// restoreTrainable reapplies the recorded layer freezing.
func restoreTrainable(net nn.Module, prefixes []string) {
	if len(prefixes) > 0 {
		nn.FreezeAllExcept(net, prefixes...)
	}
}

// checksumOK reports whether the state the cache holds hashed, at insert,
// to the checksum the model was saved with (vacuously so without one).
func (cr CachedRecovery) checksumOK() bool {
	return cr.StateHash == "" || cr.VerifiedHash == cr.StateHash
}

// stateFromCache turns a cache hit into a RecoveredState. This is the
// O(1) path: cr.State is already a shared view, environment checking is
// a field comparison, and checksum verification compares the document
// hash against the hash the cache verified at insert (re-derived from
// the bytes on this very hit when the cache is Paranoid).
func stateFromCache(ctx context.Context, id string, cr CachedRecovery, opts RecoverOptions, timing RecoverTiming) (*RecoveredState, error) {
	if opts.CheckEnv {
		err := phase(ctx, "env.check", &timing.CheckEnv, func(*obs.Span) error { return environment.Check(cr.Env) })
		if err != nil {
			return nil, err
		}
	}
	if opts.VerifyChecksums && !cr.checksumOK() {
		return nil, fmt.Errorf("core: checksum mismatch for model %s", id)
	}
	return &RecoveredState{
		ID: id, Spec: cr.Spec, State: cr.State, BaseID: cr.BaseID, Env: cr.Env,
		TrainablePrefixes: cr.TrainablePrefixes, StateHash: cr.StateHash,
		CacheHit: true, Timing: timing,
	}, nil
}
