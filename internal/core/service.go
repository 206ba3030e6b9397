package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/obs"
)

// Save/recover pipeline metrics on the shared registry, recorded once per
// entry point: a recovery counts as one operation however many links its
// chain has. Duration histograms follow the repo convention of microsecond
// buckets ("_us") and observe the same readings RecoverTiming reports.
var (
	mSaveOps     = obs.Default().Counter("core.save.ops")
	mSaveErrors  = obs.Default().Counter("core.save.errors")
	mSaveTotalUS = obs.Default().Histogram("core.save.total_us")

	mRecoverOps      = obs.Default().Counter("core.recover.ops")
	mRecoverErrors   = obs.Default().Counter("core.recover.errors")
	mRecoverTotalUS  = obs.Default().Histogram("core.recover.total_us")
	mRecoverLoadUS   = obs.Default().Histogram("core.recover.load_us")
	mRecoverBuildUS  = obs.Default().Histogram("core.recover.recover_us")
	mRecoverVerifyUS = obs.Default().Histogram("core.recover.verify_us")
)

// phase runs one step of a save or a recovery and reads the clock for it
// once: the span named name records that duration, and bucket (a
// RecoverTiming field or a SaveResult.Duration; nil when the step has
// none) grows by it — so a trace, the timing struct and the histograms fed
// from it cannot disagree. fn receives the span to annotate.
func phase(ctx context.Context, name string, bucket *time.Duration, fn func(sp *obs.Span) error) error {
	_, sp := obs.StartSpan(ctx, name)
	start := sp.Began()
	err := fn(sp)
	d := time.Since(start)
	sp.EndAfter(d)
	if bucket != nil {
		*bucket += d
	}
	return err
}

// savePlan is a save policy's decision for one model: which kind of link
// to write, plus the details that keep each approach's artifacts what they
// have always been.
type savePlan struct {
	kind     linkKind
	approach string // recorded in the root document
	// layerHashes also writes the per-layer hash document a later
	// parameter update diffs against (update links always write it).
	layerHashes bool
	// pairwiseDiff compares layer hashes one by one instead of through
	// Merkle trees (update links; the ablation of that optimization).
	pairwiseDiff bool
	// datasetByRef records an external dataset reference instead of
	// archiving the dataset (provenance links).
	datasetByRef bool
}

// service is what the four approaches share — which is everything but the
// save policy: the stores, the recovery cache, the three link writers
// (baseline.go, paramupdate.go, provenance.go) and the one recovery
// (walker.go). Save, Recover, RecoverState and their context forms are
// defined here and nowhere else.
type service struct {
	stores Stores
	cache  *RecoveryCache
	name   string
	plan   func(SaveInfo) savePlan
	// ResolveDataset resolves the reference of an externally managed
	// dataset (Section 3.3, "Managing Data sets") when a recovery replays
	// a provenance link that was saved with one.
	ResolveDataset func(ref string) (*dataset.Dataset, error)
}

// Approach implements SaveService.
func (s *service) Approach() string { return s.name }

// SetRecoveryCache implements SaveService.
func (s *service) SetRecoveryCache(c *RecoveryCache) { s.cache = c }

// Save implements SaveService.
func (s *service) Save(info SaveInfo) (SaveResult, error) {
	return s.SaveCtx(context.Background(), info)
}

// SaveCtx implements SaveService: the policy picks the link kind, the
// kind's writer persists it as one transaction (txn.go). A tracer carried
// by ctx receives a "save" root span with one child per step.
func (s *service) SaveCtx(ctx context.Context, info SaveInfo) (SaveResult, error) {
	plan := s.plan(info)
	ctx, sp := obs.StartSpan(ctx, "save")
	sp.Arg("approach", plan.approach)
	start := sp.Began()
	var res SaveResult
	var err error
	switch plan.kind {
	case snapshotLink:
		res, err = s.writeSnapshot(ctx, info, plan)
	case updateLink:
		res, err = s.writeUpdate(ctx, info, plan)
	default:
		res, err = s.writeProvenance(ctx, info, plan)
	}
	res.Duration = time.Since(start)
	sp.Arg("model", res.ID)
	sp.EndAfter(res.Duration)
	mSaveOps.Inc()
	if err != nil {
		mSaveErrors.Inc()
		return SaveResult{}, err
	}
	mSaveTotalUS.ObserveDuration(res.Duration)
	return res, nil
}

// Recover implements SaveService.
func (s *service) Recover(id string, opts RecoverOptions) (*RecoveredModel, error) {
	return s.RecoverCtx(context.Background(), id, opts)
}

// RecoverCtx implements SaveService.
func (s *service) RecoverCtx(ctx context.Context, id string, opts RecoverOptions) (*RecoveredModel, error) {
	rs, net, err := s.recover(ctx, id, opts, true)
	if err != nil {
		return nil, err
	}
	return &RecoveredModel{ID: rs.ID, Spec: rs.Spec, Net: net, BaseID: rs.BaseID, Timing: rs.Timing}, nil
}

// RecoverState implements SaveService.
func (s *service) RecoverState(id string, opts RecoverOptions) (*RecoveredState, error) {
	return s.RecoverStateCtx(context.Background(), id, opts)
}

// RecoverStateCtx implements SaveService.
func (s *service) RecoverStateCtx(ctx context.Context, id string, opts RecoverOptions) (*RecoveredState, error) {
	rs, _, err := s.recover(ctx, id, opts, false)
	return rs, err
}

// recover is the body of both recovery entry points: a "recover" root
// span, the coalesced walk (walker.go), the net when the caller wants one,
// and the metrics. A recovery that replayed training already holds a net
// and hands that out; every other instantiates its state.
func (s *service) recover(ctx context.Context, id string, opts RecoverOptions, wantNet bool) (*RecoveredState, nn.Module, error) {
	ctx, sp := obs.StartSpan(ctx, "recover")
	sp.Arg("model", id)
	defer sp.End()
	cache := s.cache
	if opts.NoCache {
		cache = nil
	}
	rs, err := recoverCoalesced(ctx, cache, id, opts, func() (*RecoveredState, error) {
		return s.walk(ctx, cache, id, opts)
	})
	var net nn.Module
	if err == nil && wantNet {
		if net = rs.net; net == nil {
			err = phase(ctx, "instantiate", &rs.Timing.Recover, func(*obs.Span) (err error) {
				net, err = rs.Instantiate()
				return err
			})
		}
	}
	mRecoverOps.Inc()
	if err != nil {
		mRecoverErrors.Inc()
		return nil, nil, err
	}
	mRecoverTotalUS.ObserveDuration(rs.Timing.Total())
	mRecoverLoadUS.ObserveDuration(rs.Timing.Load)
	mRecoverBuildUS.ObserveDuration(rs.Timing.Recover)
	mRecoverVerifyUS.ObserveDuration(rs.Timing.Verify)
	return rs, net, nil
}

// loadDataset reads a provenance link's dataset: an archive in the file
// store, or — "external:" references — whatever ResolveDataset returns.
func (s *service) loadDataset(ref string) (*dataset.Dataset, error) {
	if ref == "" {
		return nil, fmt.Errorf("core: provenance document has no dataset reference")
	}
	if ext, ok := strings.CutPrefix(ref, "external:"); ok {
		if s.ResolveDataset == nil {
			return nil, fmt.Errorf("core: dataset %q is externally managed but no resolver is configured", ref)
		}
		return s.ResolveDataset(ext)
	}
	rc, err := s.stores.Files.Open(ref)
	if err != nil {
		return nil, fmt.Errorf("core: opening dataset archive %s: %w", ref, err)
	}
	defer rc.Close()
	ds, err := dataset.ReadArchive(rc)
	if err != nil {
		return nil, fmt.Errorf("core: reading dataset archive: %w", err)
	}
	return ds, nil
}
