package experiments

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/infer"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// The serving-tier load generator. A fleet of concurrent clients serves a
// small repository of PUA-versioned models: each request recovers the
// client's model at the state level and runs an inference every few
// requests. The experiment repeats the same load under three cache
// policies — no cache, the shared recovery cache, and the cache in
// paranoid (verify-every-hit) mode — and reports recover throughput,
// latency percentiles, and allocation per request. The recovered states
// must hash identically under every policy; serving speed must never
// change results.

// servePolicy names one cache configuration of the serve experiment.
type servePolicy struct {
	name  string
	cache func() *core.RecoveryCache
}

func servePolicies() []servePolicy {
	return []servePolicy{
		{"cache-off", func() *core.RecoveryCache { return nil }},
		{"cache-on", func() *core.RecoveryCache { return core.NewRecoveryCache(0) }},
		{"paranoid", func() *core.RecoveryCache { return core.NewParanoidRecoveryCache(0) }},
	}
}

// serveLoad aggregates one policy's run.
type serveLoad struct {
	wall      time.Duration
	lats      []time.Duration
	allocated uint64 // TotalAlloc delta across the run
	rebuilds  int64  // net instantiations (version-token misses)
	hashes    map[string]string
	stats     *core.RecoveryCacheStats
}

func (l *serveLoad) percentile(p float64) time.Duration {
	if len(l.lats) == 0 {
		return 0
	}
	i := int(p * float64(len(l.lats)-1))
	return l.lats[i]
}

// Serve runs the serving-tier load: o.ServeClients concurrent clients
// (default 100) each issue o.ServeRequests recoveries (default 6) of a
// model from a 3-deep PUA chain, instantiating a net only when the
// recovered state's pointer changes and running an inference every
// o.ServeInferEvery-th request (default 3).
func Serve(w io.Writer, o Opts) error {
	clients := o.ServeClients
	if clients <= 0 {
		clients = 100
	}
	requests := o.ServeRequests
	if requests <= 0 {
		requests = 6
	}
	inferEvery := o.ServeInferEvery
	if inferEvery <= 0 {
		inferEvery = 3
	}
	arch := o.archs(models.MobileNetV2Name)[0]
	header(w, fmt.Sprintf("Serve: %d clients × %d requests (%s, PUA chain, infer every %d)", clients, requests, arch, inferEvery))

	stores, cleanup, err := newLocalStores(o.WorkDir)
	if err != nil {
		return err
	}
	defer cleanup()
	ids, err := saveServeChain(stores, arch)
	if err != nil {
		return err
	}

	res := 32
	if o.Resolution > 0 {
		res = o.Resolution
	}
	input := tensor.Normal(tensor.NewRNG(7), 0, 1, 1, 3, res, res)

	tw := newTab(w)
	fmt.Fprintln(tw, "POLICY\tRECOVER QPS\tP50\tP99\tKB ALLOC/REQ\tREBUILDS\tHITS/MISSES")
	var wantHashes map[string]string
	for _, pol := range servePolicies() {
		svc := core.NewParamUpdate(stores)
		cache := pol.cache()
		svc.SetRecoveryCache(cache)
		load, err := runServeLoad(o.ctx(), svc, ids, input, clients, requests, inferEvery)
		if err != nil {
			return fmt.Errorf("serve %s: %w", pol.name, err)
		}
		if cache != nil {
			s := cache.Stats()
			load.stats = &s
		}
		if wantHashes == nil {
			wantHashes = load.hashes
		} else {
			for id, h := range load.hashes {
				if h != wantHashes[id] {
					return fmt.Errorf("serve: policy %s recovered a different state for %s — the cache must be invisible to results", pol.name, id)
				}
			}
		}
		total := len(load.lats)
		qps := float64(total) / load.wall.Seconds()
		traffic := "-"
		if load.stats != nil {
			traffic = fmt.Sprintf("%d/%d", load.stats.Hits, load.stats.Misses)
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%s\t%s\t%.1f\t%d\t%s\n",
			pol.name, qps, ms(load.percentile(0.50)), ms(load.percentile(0.99)),
			float64(load.allocated)/float64(total)/1024, load.rebuilds, traffic)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "expected: cache-on p99 < cache-off p99; identical state hashes under every policy")
	return serveColdStart(w, o, stores, ids[len(ids)-1], clients)
}

// serveColdStart measures the thundering herd: every client asks for the
// same not-yet-cached model at the same instant, the load a fresh serving
// process (or an eviction, or a deploy) sees. Without request coalescing
// each concurrent miss walks the stores independently — N clients, N full
// recoveries of one model. With the flight table the herd collapses to a
// single recovery the followers wait on. The target is the chain's leaf,
// the most expensive model in the repository to recover.
func serveColdStart(w io.Writer, o Opts, stores core.Stores, id string, clients int) error {
	fmt.Fprintln(w)
	header(w, fmt.Sprintf("Serve cold start: %d clients, one cold model, coalescing off vs on", clients))
	tw := newTab(w)
	fmt.Fprintln(tw, "COALESCING\tWALL\tSTORE RECOVERIES\tCOALESCED\tP99")
	var wantHash string
	for _, enabled := range []bool{false, true} {
		cache := core.NewRecoveryCache(0)
		cache.SetCoalescing(enabled)
		svc := core.NewParamUpdate(stores)
		svc.SetRecoveryCache(cache)

		lats := make([]time.Duration, clients)
		hashes := make([]string, clients)
		errs := make([]error, clients)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				<-start
				t := time.Now()
				rs, err := svc.RecoverStateCtx(o.ctx(), id, core.RecoverOptions{VerifyChecksums: true})
				lats[c] = time.Since(t)
				if err != nil {
					errs[c] = err
					return
				}
				hashes[c] = rs.State.Hash()
			}(c)
		}
		t0 := time.Now()
		close(start)
		wg.Wait()
		wall := time.Since(t0)
		for _, err := range errs {
			if err != nil {
				return fmt.Errorf("serve cold start: %w", err)
			}
		}
		for _, h := range hashes {
			if wantHash == "" {
				wantHash = h
			} else if h != wantHash {
				return fmt.Errorf("serve cold start: coalescing changed a recovered state — it must be invisible to results")
			}
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		s := cache.Stats()
		mode := "off"
		if enabled {
			mode = "on"
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%s\n", mode, ms(wall), s.Misses, s.Coalesced, ms(lats[int(0.99*float64(len(lats)-1))]))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "expected: coalescing-on runs ~1 store recovery regardless of herd size; identical hashes")
	return nil
}

// saveServeChain saves the serve repository: a full snapshot of arch plus
// two partial updates, PUA-style — the model-versioning shape a serving
// tier sees when a base model is periodically fine-tuned.
func saveServeChain(stores core.Stores, arch string) ([]string, error) {
	pua := core.NewParamUpdate(stores)
	spec := models.Spec{Arch: arch, NumClasses: 1000}
	net, err := models.New(arch, 1000, 53)
	if err != nil {
		return nil, err
	}
	res, err := pua.Save(core.SaveInfo{Spec: spec, Net: net, WithChecksums: true})
	if err != nil {
		return nil, err
	}
	ids := []string{res.ID}
	models.FreezeForPartialUpdate(arch, net)
	for i := 0; i < 2; i++ {
		perturbClassifier(arch, net, 1e-3*float32(i+1))
		res, err = pua.Save(core.SaveInfo{Spec: spec, Net: net, BaseID: ids[len(ids)-1], WithChecksums: true})
		if err != nil {
			return nil, err
		}
		ids = append(ids, res.ID)
	}
	return ids, nil
}

// runServeLoad drives the client fleet against one recoverer and collects
// per-request recovery latencies. Each client pins one model of the
// repository, reuses its instantiated net while the recovered state keeps
// reporting the same Version token (sealed states never mutate in place,
// so the shared owner's identity is a version tag), and runs an inference
// every inferEvery-th request to prove the served net is usable while
// other clients share the same cached state.
func runServeLoad(ctx context.Context, svc core.SaveService, ids []string, input *tensor.Tensor, clients, requests, inferEvery int) (*serveLoad, error) {
	opts := core.RecoverOptions{VerifyChecksums: true}
	perClient := make([][]time.Duration, clients)
	errs := make([]error, clients)
	var rebuilds int64

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			id := ids[c%len(ids)]
			lats := make([]time.Duration, 0, requests)
			var served *nn.StateDict
			var net nn.Module
			var local int64
			for j := 0; j < requests; j++ {
				t := time.Now()
				rs, err := svc.RecoverStateCtx(ctx, id, opts)
				if err != nil {
					errs[c] = err
					return
				}
				if served == nil || rs.State.Version() != served {
					net, err = rs.Instantiate()
					if err != nil {
						errs[c] = err
						return
					}
					served = rs.State.Version()
					local++
				}
				lats = append(lats, time.Since(t))
				if j%inferEvery == 0 {
					if _, err := infer.Predict(net, input, 1); err != nil {
						errs[c] = err
						return
					}
				}
			}
			perClient[c] = lats
			mu.Lock()
			rebuilds += local
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	load := &serveLoad{wall: wall, allocated: after.TotalAlloc - before.TotalAlloc, rebuilds: rebuilds}
	for _, lats := range perClient {
		load.lats = append(load.lats, lats...)
	}
	sort.Slice(load.lats, func(i, j int) bool { return load.lats[i] < load.lats[j] })
	// One final recovery per model, hashed: every policy must serve
	// bit-identical states.
	load.hashes = map[string]string{}
	for _, id := range ids {
		rs, err := svc.RecoverStateCtx(ctx, id, opts)
		if err != nil {
			return nil, err
		}
		load.hashes[id] = rs.State.Hash()
	}
	return load, nil
}
