package evalflow

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/docdb"
	"repro/internal/faultnet"
	"repro/internal/filestore"
	"repro/internal/models"
	"repro/internal/tensor"
)

// tinyFlowConfig returns a fast configuration over the tiny architecture
// and a small synthetic dataset so flow mechanics can be tested end to end.
func tinyFlowConfig(approach string, rel Relation) Config {
	u3 := dataset.Spec{Name: "flow-u3", Images: 16, H: 12, W: 12, Classes: 4, Seed: 61}
	cfg := DefaultConfig(approach, models.TinyCNNName, rel, u3)
	cfg.NumClasses = 4
	cfg.U2Data = dataset.Spec{Name: "flow-u2", Images: 16, H: 12, W: 12, Classes: 4, Seed: 62}
	cfg.Loader.BatchSize = 4
	cfg.Loader.OutH, cfg.Loader.OutW = 12, 12
	cfg.WithChecksums = true
	cfg.RecoverOpts = core.RecoverOptions{VerifyChecksums: true}
	return cfg
}

func localStores(t *testing.T) core.Stores {
	t.Helper()
	files, err := filestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return core.Stores{Meta: docdb.NewMemStore(), Files: files}
}

func TestStandardFlowAllApproaches(t *testing.T) {
	for _, approach := range []string{core.BaselineApproach, core.ParamUpdateApproach, core.ProvenanceApproach, "adaptive"} {
		for _, rel := range []Relation{FullyUpdated, PartiallyUpdated} {
			t.Run(approach+"/"+rel.String(), func(t *testing.T) {
				cfg := tinyFlowConfig(approach, rel)
				res, err := Run(context.Background(), LocalProvider(localStores(t)), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.NumModels() != 10 {
					t.Fatalf("models = %d, want 10", res.NumModels())
				}
				ucs := res.UseCases()
				want := []string{"U1", "U3-1-1", "U3-1-2", "U3-1-3", "U3-1-4", "U2", "U3-2-1", "U3-2-2", "U3-2-3", "U3-2-4"}
				if len(ucs) != len(want) {
					t.Fatalf("use cases = %v", ucs)
				}
				for i := range want {
					if ucs[i] != want[i] {
						t.Fatalf("use cases = %v, want %v", ucs, want)
					}
				}
				for _, uc := range ucs {
					if res.MedianTTS(uc) <= 0 {
						t.Fatalf("%s: no TTS", uc)
					}
					if res.MedianTTR(uc) <= 0 {
						t.Fatalf("%s: no TTR", uc)
					}
					if res.MedianStorage(uc) <= 0 {
						t.Fatalf("%s: no storage", uc)
					}
				}
			})
		}
	}
}

func TestFlowDerivationChain(t *testing.T) {
	cfg := tinyFlowConfig(core.ParamUpdateApproach, PartiallyUpdated)
	stores := localStores(t)
	res, err := Run(context.Background(), LocalProvider(stores), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct the base chain from the stored documents: U3-2-1's chain
	// must be U2 → U1 (Figure 6), not U3-1-4.
	byUC := map[string]Measurement{}
	for _, m := range res.Measurements {
		byUC[m.UseCase] = m
	}
	getBase := func(id string) string {
		doc, err := stores.Meta.Get(core.ColModels, id)
		if err != nil {
			t.Fatal(err)
		}
		base, _ := doc["base_id"].(string)
		return base
	}
	if got := getBase(byUC["U3-1-1"].ModelID); got != byUC["U1"].ModelID {
		t.Fatalf("U3-1-1 base = %s, want U1", got)
	}
	if got := getBase(byUC["U3-1-2"].ModelID); got != byUC["U3-1-1"].ModelID {
		t.Fatal("U3-1-2 base should be U3-1-1")
	}
	if got := getBase(byUC["U2"].ModelID); got != byUC["U1"].ModelID {
		t.Fatal("U2 base should be U1")
	}
	if got := getBase(byUC["U3-2-1"].ModelID); got != byUC["U2"].ModelID {
		t.Fatal("U3-2-1 base should be U2")
	}
}

// PUA TTR must follow the staircase of Figure 11: recovery time grows with
// every U3 iteration and resets between phases.
func TestPUATTRStaircase(t *testing.T) {
	cfg := tinyFlowConfig(core.ParamUpdateApproach, FullyUpdated)
	res, err := Run(context.Background(), LocalProvider(localStores(t)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Each U3 recovery loads strictly more chain links than its
	// predecessor; assert on the load bucket which is monotone in links.
	links := func(uc string) int {
		// Links = chain length implied by the use case.
		switch {
		case uc == "U1":
			return 1
		case uc == "U2":
			return 2
		case strings.HasPrefix(uc, "U3-1-"):
			return 1 + int(uc[len(uc)-1]-'0')
		default:
			return 2 + int(uc[len(uc)-1]-'0')
		}
	}
	for _, m := range res.Measurements {
		if !m.Recovered {
			t.Fatal("TTR missing")
		}
		_ = links(m.UseCase) // documented mapping; numeric assert below
	}
	// U3-1-4 must take longer to recover than U3-1-1 (3 more links).
	if res.MedianTTR("U3-1-4") <= res.MedianTTR("U3-1-1") {
		t.Fatalf("no staircase: U3-1-4 %v <= U3-1-1 %v", res.MedianTTR("U3-1-4"), res.MedianTTR("U3-1-1"))
	}
}

func TestDistributedFlowCounts(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			provider, cleanup, err := ShardedProvider(t.TempDir(), shards, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer cleanup()

			cfg := tinyFlowConfig(core.BaselineApproach, FullyUpdated)
			cfg.Nodes = 5
			cfg.U3PerPhase = 3 // scaled-down DIST flow: 2 + 5*2*3 = 32 models
			cfg.MeasureTTR = false
			res, err := Run(context.Background(), provider, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.NumModels() != 2+5*2*3 {
				t.Fatalf("models = %d, want 32", res.NumModels())
			}
			// Every node contributed measurements for each U3 use case.
			for _, uc := range []string{"U3-1-1", "U3-2-3"} {
				if got := len(res.perUseCase(uc)); got != 5 {
					t.Fatalf("%s: %d nodes, want 5", uc, got)
				}
			}
			// Storage is constant across nodes for a given use case (paper §4.6).
			ms := res.perUseCase("U3-1-1")
			for _, m := range ms[1:] {
				ratio := float64(m.Save.StorageBytes) / float64(ms[0].Save.StorageBytes)
				if ratio < 0.9 || ratio > 1.1 {
					t.Fatalf("storage varies across nodes: %d vs %d", m.Save.StorageBytes, ms[0].Save.StorageBytes)
				}
			}
		})
	}
}

// TestNodePhaseReportsAllNodeErrors: when every node of a phase fails, the
// flow error must carry every node's cause, not just whichever error
// happened to be read first.
func TestNodePhaseReportsAllNodeErrors(t *testing.T) {
	cfg := tinyFlowConfig(core.BaselineApproach, FullyUpdated)
	cfg.Nodes = 3
	cfg.MeasureTTR = false
	stores := localStores(t)
	var calls atomic.Int64
	provider := func() (core.Stores, func(), error) {
		// The first call hands the server its stores; every node call
		// after that fails with a distinguishable cause.
		if calls.Add(1) == 1 {
			return stores, func() {}, nil
		}
		return core.Stores{}, nil, fmt.Errorf("metadata machine unreachable (call %d)", calls.Load())
	}
	_, err := Run(context.Background(), provider, cfg)
	if err == nil {
		t.Fatal("expected the phase to fail")
	}
	msg := err.Error()
	for node := 0; node < 3; node++ {
		if !strings.Contains(msg, fmt.Sprintf("node %d:", node)) {
			t.Fatalf("error lost node %d's cause:\n%s", node, msg)
		}
	}
	if !strings.Contains(msg, "metadata machine unreachable") {
		t.Fatalf("error lost the underlying cause:\n%s", msg)
	}
}

// capture reads back every artifact a flow stored, keyed by use case and
// node.
func capture(t *testing.T, provider StoreProvider, res *Result) map[string]core.Artifacts {
	t.Helper()
	stores, release, err := provider()
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	byKey := map[string]core.Artifacts{}
	for _, m := range res.Measurements {
		art, err := core.CaptureArtifacts(stores, m.ModelID)
		if err != nil {
			t.Fatalf("capturing %s: %v", m.UseCase, err)
		}
		byKey[fmt.Sprintf("%s/node%d", m.UseCase, m.Node)] = art
	}
	return byKey
}

// sameArtifacts fails the test unless got holds byte-identical artifacts
// under the same keys as want.
func sameArtifacts(t *testing.T, what string, want, got map[string]core.Artifacts) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("measurement counts differ: %d vs %d", len(want), len(got))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Fatalf("%s run missing measurement %s", what, key)
		}
		if d := w.Diff(g); d != "" {
			t.Errorf("%s: stored %s differ in the %s run", key, d, what)
		}
	}
}

// TestFaultyFlowStoresIdenticalArtifacts is the fault-tolerance acceptance
// test: a DIST-5 flow over a deterministic flaky network (connection
// drops, torn frames, delays — with the clients retrying and reconnecting),
// on one shard and on two, must complete and persist artifacts
// byte-identical to the same flow on a healthy one-shard network. Faults
// may cost time; they may never cost or corrupt a byte.
func TestFaultyFlowStoresIdenticalArtifacts(t *testing.T) {
	cfg := tinyFlowConfig(core.ParamUpdateApproach, FullyUpdated)
	cfg.Nodes = 5
	cfg.U3PerPhase = 2 // scaled-down DIST-5: 2 + 5*2*2 = 22 models
	cfg.SequentialNodes = true
	cfg.MeasureTTR = true // recovery must also survive the flaky network

	healthyProvider, healthyCleanup, err := ShardedProvider(t.TempDir(), 1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer healthyCleanup()
	healthyRes, err := Run(context.Background(), healthyProvider, cfg)
	if err != nil {
		t.Fatalf("fault-free run: %v", err)
	}
	healthy := capture(t, healthyProvider, healthyRes)

	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var stats faultnet.Stats
			provider, cleanup, err := ShardedProvider(t.TempDir(), shards, 0, &faultnet.Config{
				Seed:  20260806,
				Rate:  0.05,
				Stats: &stats,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cleanup()
			res, err := Run(context.Background(), provider, cfg)
			if err != nil {
				t.Fatalf("flow did not survive the flaky network: %v", err)
			}
			if stats.Total() == 0 {
				t.Fatal("no faults were injected; the run proved nothing")
			}
			sameArtifacts(t, "faulty", healthy, capture(t, provider, res))
		})
	}
}

func TestSequentialNodesProduceSameModels(t *testing.T) {
	// Sequential and concurrent node execution must produce the same model
	// set (node chains are independent); only timing characteristics may
	// differ.
	base := tinyFlowConfig(core.BaselineApproach, FullyUpdated)
	base.Nodes = 3
	base.MeasureTTR = false

	seq := base
	seq.SequentialNodes = true
	rSeq, err := Run(context.Background(), LocalProvider(localStores(t)), seq)
	if err != nil {
		t.Fatal(err)
	}
	rCon, err := Run(context.Background(), LocalProvider(localStores(t)), base)
	if err != nil {
		t.Fatal(err)
	}
	if rSeq.NumModels() != rCon.NumModels() {
		t.Fatalf("model counts differ: %d vs %d", rSeq.NumModels(), rCon.NumModels())
	}
	// Per use case and node, the storage footprints match (same models).
	for _, uc := range rSeq.UseCases() {
		if rSeq.MedianStorage(uc) != rCon.MedianStorage(uc) {
			t.Fatalf("%s: storage differs between sequential and concurrent", uc)
		}
	}
}

func TestTable3Definitions(t *testing.T) {
	defs := Table3()
	want := map[string]int{"STANDARD": 10, "DIST-5": 102, "DIST-10": 202, "DIST-20": 402}
	if len(defs) != 4 {
		t.Fatalf("defs = %v", defs)
	}
	for _, d := range defs {
		if d.Models != want[d.Name] {
			t.Fatalf("%s: %d models, want %d (Table 3)", d.Name, d.Models, want[d.Name])
		}
	}
}

func TestRunValidation(t *testing.T) {
	cfg := tinyFlowConfig(core.BaselineApproach, FullyUpdated)
	cfg.Nodes = 0
	if _, err := Run(context.Background(), LocalProvider(localStores(t)), cfg); err == nil {
		t.Fatal("expected error for 0 nodes")
	}
	cfg = tinyFlowConfig("bogus", FullyUpdated)
	if _, err := Run(context.Background(), LocalProvider(localStores(t)), cfg); err == nil {
		t.Fatal("expected error for unknown approach")
	}
}

func TestMedianOfRuns(t *testing.T) {
	cfg := tinyFlowConfig(core.BaselineApproach, FullyUpdated)
	var runs []*Result
	for i := 0; i < 3; i++ {
		res, err := Run(context.Background(), LocalProvider(localStores(t)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, res)
	}
	agg := MedianOfRuns{Runs: runs}
	if agg.TTS("U1") <= 0 || agg.TTR("U1") <= 0 || agg.Storage("U1") <= 0 {
		t.Fatal("aggregation empty")
	}
	if len(agg.UseCases()) != 10 {
		t.Fatal("use cases lost")
	}
	// Empty aggregation behaves.
	empty := MedianOfRuns{}
	if empty.TTS("U1") != 0 || empty.Storage("U1") != 0 || empty.UseCases() != nil {
		t.Fatal("empty aggregation should be zero")
	}
}

func TestRelationString(t *testing.T) {
	if FullyUpdated.String() != "full" || PartiallyUpdated.String() != "partial" {
		t.Fatal("relation strings")
	}
}

// recoverAll is the concurrent U4 sweep, which a flow runs one model at a
// time: workers goroutines share svc, each recovering the next unclaimed
// measurement and recording its TTR.
func recoverAll(t *testing.T, svc core.SaveService, res *Result, workers int) {
	t.Helper()
	var (
		wg   sync.WaitGroup
		next atomic.Int64
		errs = make([]error, len(res.Measurements))
	)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(errs); i = int(next.Add(1)) - 1 {
				m := &res.Measurements[i]
				rec, err := svc.Recover(m.ModelID, core.RecoverOptions{VerifyChecksums: true})
				if err != nil {
					errs[i] = fmt.Errorf("recovering %s: %w", m.UseCase, err)
					continue
				}
				m.TTR, m.Recovered = rec.Timing, true
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentU4SweepWithCache runs the recovery sweep on several
// goroutines sharing one cache-equipped service. Under -race (verify.sh)
// this doubles as the race gate for the cache and the pipelined loaders.
func TestConcurrentU4SweepWithCache(t *testing.T) {
	for _, approach := range []string{core.ParamUpdateApproach, "adaptive"} {
		t.Run(approach, func(t *testing.T) {
			cfg := tinyFlowConfig(approach, PartiallyUpdated)
			cfg.MeasureTTR = false
			stores := localStores(t)
			res, err := Run(context.Background(), LocalProvider(stores), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.NumModels() != 10 {
				t.Fatalf("models = %d, want 10", res.NumModels())
			}
			svc, err := NewService(approach, stores)
			if err != nil {
				t.Fatal(err)
			}
			svc.SetRecoveryCache(core.NewRecoveryCache(0))
			recoverAll(t, svc, res, 4)
			for _, uc := range res.UseCases() {
				if res.MedianTTR(uc) <= 0 {
					t.Fatalf("%s: no TTR", uc)
				}
				b := res.MedianTTRBreakdown(uc)
				if b.Total() <= 0 {
					t.Fatalf("%s: empty TTR breakdown", uc)
				}
			}

			// The deterministic flow must store the same model states whether
			// the sweep runs concurrent+cached or sequential+uncached.
			cfg2 := tinyFlowConfig(approach, PartiallyUpdated)
			stores2 := localStores(t)
			res2, err := Run(context.Background(), LocalProvider(stores2), cfg2)
			if err != nil {
				t.Fatal(err)
			}
			hashOf := func(stores core.Stores, id string) string {
				doc, err := stores.Meta.Get(core.ColModels, id)
				if err != nil {
					t.Fatal(err)
				}
				h, _ := doc["state_hash"].(string)
				return h
			}
			for i, m := range res.Measurements {
				if hashOf(stores, m.ModelID) != hashOf(stores2, res2.Measurements[i].ModelID) {
					t.Fatalf("%s: state hash diverged between concurrent-cached and sequential runs", m.UseCase)
				}
			}
		})
	}
}

// TestDist5CachedRecoveryArtifactIdentical is the cached recovery's
// correctness acceptance: a DIST-5 flow whose recovery sweep runs with the
// Paranoid cache and parallel deserialization, and is then swept again by
// concurrent workers over a second cache, must persist artifacts
// byte-identical to the same flow recovered sequentially and uncached.
func TestDist5CachedRecoveryArtifactIdentical(t *testing.T) {
	for _, approach := range []string{core.BaselineApproach, core.ParamUpdateApproach, core.ProvenanceApproach, "adaptive"} {
		t.Run(approach, func(t *testing.T) {
			cfg := tinyFlowConfig(approach, PartiallyUpdated)
			cfg.Nodes = 5
			cfg.U3PerPhase = 1 // scaled-down DIST-5: 2 + 5*2*1 = 12 models
			cfg.SequentialNodes = true

			// Seed behavior: sequential uncached sweep, sequential decode.
			plainProvider, plainCleanup, err := ShardedProvider(t.TempDir(), 1, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer plainCleanup()
			plainRes, err := Run(context.Background(), plainProvider, cfg)
			if err != nil {
				t.Fatal(err)
			}
			plain := capture(t, plainProvider, plainRes)

			// Fast path: cache on (Paranoid: every hit re-verified from the
			// stored bytes), 4 tensor workers, then 4 sweep goroutines.
			fast := cfg
			fast.UseRecoveryCache = true
			fast.ParanoidCache = true
			prevW := tensor.Workers()
			tensor.SetWorkers(4)
			defer tensor.SetWorkers(prevW)
			fastProvider, fastCleanup, err := ShardedProvider(t.TempDir(), 1, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer fastCleanup()
			fastRes, err := Run(context.Background(), fastProvider, fast)
			if err != nil {
				t.Fatal(err)
			}
			stores, release, err := fastProvider()
			if err != nil {
				t.Fatal(err)
			}
			defer release()
			svc, err := NewService(approach, stores)
			if err != nil {
				t.Fatal(err)
			}
			swept := core.NewParanoidRecoveryCache(0)
			svc.SetRecoveryCache(swept)
			recoverAll(t, svc, fastRes, 4)

			sameArtifacts(t, "cached+parallel", plain, capture(t, fastProvider, fastRes))
			if plainRes.CacheStats != nil {
				t.Fatal("uncached run reported cache stats")
			}
			if fastRes.CacheStats == nil {
				t.Fatal("cached run missing cache stats")
			}
			for _, st := range []core.RecoveryCacheStats{*fastRes.CacheStats, swept.Stats()} {
				if st.Puts == 0 || st.Hits+st.Misses == 0 {
					t.Fatalf("cache saw no traffic: %+v", st)
				}
				if st.Corrupt != 0 {
					t.Fatalf("paranoid verification dropped entries: %+v", st)
				}
			}
		})
	}
}
