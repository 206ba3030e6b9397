// Package evalflow executes the paper's evaluation flows (Section 4.1 and
// 4.6): sequences of the four use cases — U1 initial distribution, U2
// server-side update, U3 node-side updates, U4 recovery — against one of
// the save approaches, measuring storage consumption, time-to-save, and
// time-to-recover per created model.
//
// The standard flow runs U1, k iterations of U3 (phase 1), U2, and k more
// iterations of U3 (phase 2) on a single node (k = 4), creating ten models.
// The distributed flows DIST-5/10/20 run the same phases with ten U3
// iterations on 5/10/20 concurrent nodes (102/202/402 models). Derivation
// matches Figure 6: U3-1-1 derives from U1, each U3 from its predecessor,
// U2 derives from U1, and U3-2-1 derives from U2.
package evalflow

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/train"
)

// Relation is the model relation between derived versions (Section 2.1).
type Relation int

const (
	// FullyUpdated trains all parameters, so every layer changes.
	FullyUpdated Relation = iota
	// PartiallyUpdated trains only the final classifier.
	PartiallyUpdated
)

func (r Relation) String() string {
	if r == PartiallyUpdated {
		return "partial"
	}
	return "full"
}

// Config describes one experiment: a full run of the evaluation flow for a
// given approach, model architecture, model relation, and dataset.
type Config struct {
	// Approach is one of the core approach identifiers, or "adaptive".
	Approach string
	// Arch and NumClasses select the model.
	Arch       string
	NumClasses int
	// Relation selects fully or partially updated model versions.
	Relation Relation
	// Nodes is the number of concurrent nodes (1 = standard flow).
	Nodes int
	// U3PerPhase is the number of U3 iterations per phase (4 = standard).
	U3PerPhase int
	// U3Data and U2Data describe the training datasets.
	U3Data dataset.Spec
	U2Data dataset.Spec
	// Train configures the per-use-case training runs. The paper runs "two
	// epochs with two batches" to make the evaluation feasible.
	Train train.ServiceConfig
	// Loader configures batching; OutH/OutW set the training resolution.
	Loader train.LoaderConfig
	// Opt configures the optimizer.
	Opt train.SGDConfig
	// Seed drives model initialization and per-use-case seeds.
	Seed uint64
	// WithChecksums stores verification hashes with every model.
	WithChecksums bool
	// MeasureTTR additionally recovers every saved model after the flow
	// (use case U4) and records the recovery timing.
	MeasureTTR bool
	// SequentialNodes runs the nodes of a U3 phase one after another
	// instead of concurrently. The paper's setup models all nodes with one
	// machine, so its per-node timings are free of cross-node CPU
	// contention; sequential execution reproduces that. Concurrent
	// execution (the default) stresses the shared stores instead.
	SequentialNodes bool
	// RecoverOpts configures the measured recoveries.
	RecoverOpts core.RecoverOptions
	// UseRecoveryCache equips the server's save service with a
	// core.RecoveryCache for the U4 sweep, so each chain prefix is
	// recovered once instead of once per descendant.
	UseRecoveryCache bool
	// ParanoidCache makes the recovery cache re-hash every entry's stored
	// bytes on each hit instead of trusting sealed immutability — the
	// fault-injection posture: O(model size) per hit, but even direct
	// in-memory corruption of cached tensors degrades to a miss.
	ParanoidCache bool
}

// DefaultConfig returns a standard-flow configuration for the given
// approach/architecture/relation, with the paper's simulated training
// (2 epochs × 2 batches) at 32×32 training resolution.
func DefaultConfig(approach, arch string, rel Relation, u3 dataset.Spec) Config {
	return Config{
		Approach:   approach,
		Arch:       arch,
		NumClasses: 1000,
		Relation:   rel,
		Nodes:      1,
		U3PerPhase: 4,
		U3Data:     u3,
		U2Data:     dataset.MINetVal(0.05),
		Train:      train.ServiceConfig{Epochs: 2, BatchesPerEpoch: 2, Seed: 1, Deterministic: true},
		Loader:     train.LoaderConfig{BatchSize: 4, OutH: 32, OutW: 32, Shuffle: true, Seed: 1},
		// Clipped, conservative SGD: the flow's short fine-tuning steps on
		// random-init 1000-class models must stay numerically stable so
		// every step actually changes the trainable layers.
		Opt:        train.SGDConfig{LR: 0.001, Momentum: 0.9, ClipNorm: 1},
		Seed:       42,
		MeasureTTR: true,
	}
}

// Measurement records one saved (and optionally recovered) model.
type Measurement struct {
	// UseCase labels the flow step: "U1", "U2", "U3-1-1", ...
	UseCase string
	// Node is the node index (0 for server-side saves U1/U2).
	Node int
	// ModelID identifies the saved model.
	ModelID string
	// Save holds the storage and TTS metrics.
	Save core.SaveResult
	// TTR holds the recovery breakdown when MeasureTTR is set.
	TTR core.RecoverTiming
	// Recovered reports whether TTR was measured.
	Recovered bool
}

// Result is the outcome of one flow execution.
type Result struct {
	Config       Config
	Measurements []Measurement
	// CacheStats snapshots the recovery cache after the U4 sweep (nil when
	// the flow ran without a cache): hits vs misses, shared vs COW'd hits,
	// Paranoid corruption drops, and final occupancy.
	CacheStats *core.RecoveryCacheStats
	// Metrics is the delta of the process-wide obs registry across this
	// run: docdb wire traffic, file store and cache counters, digest ops,
	// and save/recover histograms attributable to the flow. Concurrent
	// flows in one process share the registry, so attribute deltas only
	// when runs do not overlap.
	Metrics *obs.Snapshot
}

// NewService builds the save service of an approach: one of the core
// approach identifiers, or "adaptive".
func NewService(approach string, stores core.Stores) (core.SaveService, error) {
	switch approach {
	case core.BaselineApproach:
		return core.NewBaseline(stores), nil
	case core.ParamUpdateApproach:
		return core.NewParamUpdate(stores), nil
	case core.ProvenanceApproach:
		return core.NewProvenance(stores), nil
	case "adaptive":
		return core.NewAdaptive(stores), nil
	default:
		return nil, fmt.Errorf("evalflow: unknown approach %q", approach)
	}
}

// Run executes the evaluation flow and returns its measurements. A tracer
// carried by ctx receives the save and recovery spans of every flow step,
// and the Result carries the registry metrics delta of the whole run.
func Run(ctx context.Context, provider StoreProvider, cfg Config) (*Result, error) {
	before := obs.Default().Snapshot()
	res, err := runFlow(ctx, provider, cfg)
	if err != nil {
		return nil, err
	}
	delta := obs.Default().Snapshot().Delta(before)
	res.Metrics = &delta
	return res, nil
}

func runFlow(ctx context.Context, provider StoreProvider, cfg Config) (*Result, error) {
	if cfg.Nodes < 1 || cfg.U3PerPhase < 1 {
		return nil, fmt.Errorf("evalflow: invalid config: %d nodes, %d U3 iterations", cfg.Nodes, cfg.U3PerPhase)
	}
	u3ds, err := dataset.Generate(cfg.U3Data)
	if err != nil {
		return nil, fmt.Errorf("evalflow: generating U3 dataset: %w", err)
	}
	u2ds, err := dataset.Generate(cfg.U2Data)
	if err != nil {
		return nil, fmt.Errorf("evalflow: generating U2 dataset: %w", err)
	}

	serverStores, serverCleanup, err := provider()
	if err != nil {
		return nil, err
	}
	defer serverCleanup()
	serverSvc, err := NewService(cfg.Approach, serverStores)
	if err != nil {
		return nil, err
	}
	var cache *core.RecoveryCache
	if cfg.UseRecoveryCache {
		if cfg.ParanoidCache {
			cache = core.NewParanoidRecoveryCache(0)
		} else {
			cache = core.NewRecoveryCache(0)
		}
		serverSvc.SetRecoveryCache(cache)
	}

	spec := models.Spec{Arch: cfg.Arch, NumClasses: cfg.NumClasses}
	res := &Result{Config: cfg}

	// U1: the server develops the initial model and saves it. The paper
	// uses pretrained torchvision weights; seeded initialization plays that
	// role here.
	initial, err := models.New(cfg.Arch, cfg.NumClasses, cfg.Seed)
	if err != nil {
		return nil, err
	}
	applyRelation(cfg, initial)
	u1Save, err := serverSvc.SaveCtx(ctx, core.SaveInfo{Spec: spec, Net: initial, WithChecksums: cfg.WithChecksums})
	if err != nil {
		return nil, fmt.Errorf("evalflow: U1 save: %w", err)
	}
	res.Measurements = append(res.Measurements, Measurement{UseCase: "U1", ModelID: u1Save.ID, Save: u1Save})
	u1State := nn.StateDictOf(initial).Clone()

	// Phase 1: every node derives from U1.
	phase1, err := runNodesPhase(ctx, provider, cfg, spec, 1, u1Save.ID, u1State, u3ds)
	if err != nil {
		return nil, err
	}
	res.Measurements = append(res.Measurements, phase1...)

	// U2: the server improves the initial model (derived from U1) and
	// deploys the update.
	u2Net, err := spec.Build()
	if err != nil {
		return nil, err
	}
	if err := u1State.LoadInto(u2Net); err != nil {
		return nil, err
	}
	applyRelation(cfg, u2Net)
	u2Rec, err := cfg.TrainStep(u2Net, u2ds, cfg.Seed+1000)
	if err != nil {
		return nil, fmt.Errorf("evalflow: U2 training: %w", err)
	}
	u2Save, err := serverSvc.SaveCtx(ctx, core.SaveInfo{
		Spec: spec, Net: u2Net, BaseID: u1Save.ID,
		WithChecksums: cfg.WithChecksums, Provenance: u2Rec,
	})
	if err != nil {
		return nil, fmt.Errorf("evalflow: U2 save: %w", err)
	}
	res.Measurements = append(res.Measurements, Measurement{UseCase: "U2", ModelID: u2Save.ID, Save: u2Save})
	u2State := nn.StateDictOf(u2Net).Clone()

	// Phase 2: every node derives from U2.
	phase2, err := runNodesPhase(ctx, provider, cfg, spec, 2, u2Save.ID, u2State, u3ds)
	if err != nil {
		return nil, err
	}
	res.Measurements = append(res.Measurements, phase2...)

	// U4: recover every saved model, one after another, and record the TTR.
	if cfg.MeasureTTR {
		for i := range res.Measurements {
			m := &res.Measurements[i]
			rec, err := serverSvc.RecoverCtx(ctx, m.ModelID, cfg.RecoverOpts)
			if err != nil {
				return nil, fmt.Errorf("evalflow: recovering %s (%s): %w", m.ModelID, m.UseCase, err)
			}
			m.TTR, m.Recovered = rec.Timing, true
		}
	}
	if cache != nil {
		s := cache.Stats()
		res.CacheStats = &s
	}
	return res, nil
}

// applyRelation sets the trainable flags for the configured model relation.
func applyRelation(cfg Config, net nn.Module) {
	if cfg.Relation == PartiallyUpdated {
		models.FreezeForPartialUpdate(cfg.Arch, net)
	} else {
		nn.SetTrainable(net, true)
	}
}

// TrainStep trains net once over ds — cfg's loader, training service and
// optimizer, with the loader and the service both seeded by seed — and
// returns the provenance record that replays the run. The provenance
// approach stores the record; the others ignore it.
func (cfg Config) TrainStep(net nn.Module, ds *dataset.Dataset, seed uint64) (*core.ProvenanceRecord, error) {
	loaderCfg := cfg.Loader
	loaderCfg.Seed = seed
	loader, err := train.NewDataLoader(ds, loaderCfg)
	if err != nil {
		return nil, err
	}
	svcCfg := cfg.Train
	svcCfg.Seed = seed
	svc := train.NewImageClassifierTrainService(svcCfg, loader, train.NewSGD(cfg.Opt))
	rec, err := core.NewProvenanceRecord(svc)
	if err != nil {
		return nil, err
	}
	if _, err := rec.Train(net); err != nil {
		return nil, err
	}
	return rec, nil
}

// runNodesPhase executes one U3 phase on all nodes concurrently. Each node
// clones the phase's base state, then alternates training and saving.
func runNodesPhase(ctx context.Context, provider StoreProvider, cfg Config, spec models.Spec, phase int, baseID string, baseState *nn.StateDict, ds *dataset.Dataset) ([]Measurement, error) {
	type nodeOut struct {
		node int
		ms   []Measurement
		err  error
	}
	out := make(chan nodeOut, cfg.Nodes)
	if cfg.SequentialNodes {
		for node := 0; node < cfg.Nodes; node++ {
			ms, err := runOneNode(ctx, provider, cfg, spec, phase, node, baseID, baseState, ds)
			out <- nodeOut{node: node, ms: ms, err: err}
		}
	} else {
		var wg sync.WaitGroup
		for node := 0; node < cfg.Nodes; node++ {
			wg.Add(1)
			go func(node int) {
				defer wg.Done()
				ms, err := runOneNode(ctx, provider, cfg, spec, phase, node, baseID, baseState, ds)
				out <- nodeOut{node: node, ms: ms, err: err}
			}(node)
		}
		wg.Wait()
	}
	close(out)
	byNode := make([][]Measurement, cfg.Nodes)
	// Collect every node's error before failing: a 20-node DIST run that
	// dies on all 20 nodes must report all 20 causes, not whichever one
	// happened to drain from the channel first.
	var errs []error
	for o := range out {
		if o.err != nil {
			errs = append(errs, fmt.Errorf("node %d: %w", o.node, o.err))
			continue
		}
		byNode[o.node] = o.ms
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	var all []Measurement
	for _, ms := range byNode {
		all = append(all, ms...)
	}
	return all, nil
}

func runOneNode(ctx context.Context, provider StoreProvider, cfg Config, spec models.Spec, phase, node int, baseID string, baseState *nn.StateDict, ds *dataset.Dataset) ([]Measurement, error) {
	stores, cleanup, err := provider()
	if err != nil {
		return nil, err
	}
	defer cleanup()
	svc, err := NewService(cfg.Approach, stores)
	if err != nil {
		return nil, err
	}

	net, err := spec.Build()
	if err != nil {
		return nil, err
	}
	if err := baseState.LoadInto(net); err != nil {
		return nil, err
	}
	applyRelation(cfg, net)

	var ms []Measurement
	prevID := baseID
	for iter := 1; iter <= cfg.U3PerPhase; iter++ {
		seed := cfg.Seed + uint64(phase)*1_000_000 + uint64(node)*10_000 + uint64(iter)
		rec, err := cfg.TrainStep(net, ds, seed)
		if err != nil {
			return nil, fmt.Errorf("evalflow: node %d U3-%d-%d training: %w", node, phase, iter, err)
		}
		save, err := svc.SaveCtx(ctx, core.SaveInfo{
			Spec: spec, Net: net, BaseID: prevID,
			WithChecksums: cfg.WithChecksums, Provenance: rec,
		})
		if err != nil {
			return nil, fmt.Errorf("evalflow: node %d U3-%d-%d save: %w", node, phase, iter, err)
		}
		ms = append(ms, Measurement{
			UseCase: fmt.Sprintf("U3-%d-%d", phase, iter),
			Node:    node,
			ModelID: save.ID,
			Save:    save,
		})
		prevID = save.ID
	}
	return ms, nil
}
