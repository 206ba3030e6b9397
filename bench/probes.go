package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/docdb"
	"repro/internal/filestore"
	"repro/internal/merkle"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/tensor"
)

// A probe times one layer's public entry point on its own, on the
// workload's model, outside any save or recovery. The in-situ numbers say
// how much time an operation spent under a layer; the probes say what one
// call of each step costs, including the layers no decorator can see.

// Iterations per probe: probeMax when the time allows, never fewer than
// probeMin. A probe is cut short only by the run's overall time cap.
const (
	probeMax = 30
	probeMin = 3
)

// probeDocs is the collection size the Find probes scan.
const probeDocs = 32

type probe struct {
	name, unit string
	// run does one iteration and returns its measurement in unit.
	run func() (float64, error)
}

// per times fn and reports it in the unit's scale.
func per(unit string, fn func() error) func() (float64, error) {
	return func() (float64, error) {
		t := time.Now()
		err := fn()
		d := time.Since(t)
		switch unit {
		case "ms":
			return ms(d), err
		case "us":
			return us(d), err
		}
		return float64(d), err
	}
}

// rate times fn and reports units (MB, ops) per second.
func rate(units float64, fn func() error) func() (float64, error) {
	return func() (float64, error) {
		t := time.Now()
		err := fn()
		return units / time.Since(t).Seconds(), err
	}
}

// batchNs times n back-to-back calls and reports ns per call, for calls
// too short to time one at a time.
func batchNs(n int, fn func()) func() (float64, error) {
	return func() (float64, error) {
		t := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		return float64(time.Since(t)) / float64(n), nil
	}
}

// runProbes runs every probe on in's model within about budget and
// returns the median of each.
func runProbes(in *instance, budget time.Duration) (map[string]metric, error) {
	dir, err := os.MkdirTemp(in.env.dir, "probes-")
	if err != nil {
		return nil, err
	}
	probes, cleanup, err := buildProbes(in, dir)
	if err != nil {
		return nil, err
	}
	minIter := probeMin
	if in.env.cfg.small {
		minIter = 1
	}
	out := make(map[string]metric, len(probes))
	deadline := time.Now().Add(budget)
	for i, p := range probes {
		slice := time.Until(deadline) / time.Duration(len(probes)-i)
		start := time.Now()
		var vals []float64
		for len(vals) < probeMax && (len(vals) < minIter || (time.Since(start) < slice && !in.env.cfg.small)) {
			v, err := p.run()
			if err != nil {
				_ = cleanup() // the probe error is the one to report
				return nil, fmt.Errorf("probe %s: %w", p.name, err)
			}
			vals = append(vals, v)
		}
		out[p.name] = metric{median(vals), p.unit}
	}
	return out, cleanup()
}

// frames serializes ts back to back and returns the buffer with each
// frame's offset, the input of tensor.DecodeFrames and AliasFrames.
func frames(ts []*tensor.Tensor) ([]byte, []int, error) {
	var buf bytes.Buffer
	offs := make([]int, len(ts))
	for i, t := range ts {
		offs[i] = buf.Len()
		if _, err := t.WriteTo(&buf); err != nil {
			return nil, nil, err
		}
	}
	return buf.Bytes(), offs, nil
}

func leaves(hs []nn.KeyHash) []merkle.Leaf {
	out := make([]merkle.Leaf, len(hs))
	for i, h := range hs {
		out[i] = merkle.Leaf{Name: h.Key, Hash: h.Hash}
	}
	return out
}

// buildProbes prepares the fixtures (serialized state, stores, a
// loopback server) and returns the probes over them.
func buildProbes(in *instance, dir string) (_ []probe, cleanup func() error, err error) {
	var started closers
	cleanup = func() error { return started.close() }
	defer func() {
		if err != nil {
			_ = cleanup() // the build error is the one to report
		}
	}()

	spec, net := in.spec, in.net
	sd := nn.StateDictOf(net)
	var rawBuf bytes.Buffer
	if _, err := sd.WriteTo(&rawBuf); err != nil {
		return nil, nil, err
	}
	raw := rawBuf.Bytes()
	mb := float64(len(raw)) / 1e6
	entries := sd.Entries()
	ts := make([]*tensor.Tensor, len(entries))
	for i, e := range entries {
		ts[i] = e.Tensor
	}
	frameBuf, offs, err := frames(ts)
	if err != nil {
		return nil, nil, err
	}
	classifier := []string{nn.LayerOf(models.ClassifierPrefix(spec.Arch) + ".weight")}
	update := sd.SubsetByLayers(classifier)
	if update.Len() == 0 {
		return nil, nil, fmt.Errorf("no classifier layer %v in %s", classifier, spec.Arch)
	}
	layerHashes := sd.LayerHashes()
	baseLeaves := leaves(layerHashes)
	changedLeaves := append([]merkle.Leaf(nil), baseLeaves...)
	changedLeaves[len(changedLeaves)-1].Hash = baseLeaves[0].Hash
	baseTree, err := merkle.Build(baseLeaves)
	if err != nil {
		return nil, nil, err
	}
	changedTree, err := merkle.Build(changedLeaves)
	if err != nil {
		return nil, nil, err
	}
	target, err := spec.Build()
	if err != nil {
		return nil, nil, err
	}
	trainNet, err := models.Instantiate(spec)
	if err != nil {
		return nil, nil, err
	}
	ds := in.data
	if ds == nil {
		if ds, err = dataset.Generate(dataset.CO512(0.01)); err != nil {
			return nil, nil, err
		}
	}
	var archive bytes.Buffer
	if _, err := ds.WriteArchive(&archive); err != nil {
		return nil, nil, err
	}
	dataMB := float64(ds.Spec.SizeBytes()) / 1e6

	// The layer-hash document is the largest document a save writes; the
	// document probes move that one.
	doc := docdb.Document{"layers": layerHashes}
	small := docdb.Document{"approach": core.ParamUpdateApproach, "base_id": ""}
	fill := func(s docdb.Store) error {
		for i := 0; i < probeDocs; i++ {
			if err := s.Put("probe", fmt.Sprintf("doc%02d", i), small); err != nil {
				return err
			}
		}
		return s.Put("big", "doc", doc)
	}
	mem := docdb.NewMemStore()
	disk, err := docdb.OpenDisk(filepath.Join(dir, "meta"))
	if err != nil {
		return nil, nil, err
	}
	files, err := filestore.Open(filepath.Join(dir, "files"))
	if err != nil {
		return nil, nil, err
	}
	blobID := filestore.NewID()
	if _, _, err := files.SaveAs(blobID, bytes.NewReader(raw)); err != nil {
		return nil, nil, err
	}
	srv, err := docdb.NewServer(docdb.NewMemStore(), "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	started = append(started, srv.Close)
	wire, err := docdb.Dial(srv.Addr())
	if err != nil {
		return nil, nil, err
	}
	started = append(started, wire.Close)
	pool, err := docdb.DialPool(srv.Addr(), distPoolSize, docdb.ClientOptions{})
	if err != nil {
		return nil, nil, err
	}
	started = append(started, pool.Close)
	ring, err := shard.NewRing(distShards, 0)
	if err != nil {
		return nil, nil, err
	}
	sharded, err := shard.NewMeta(ring, docdb.NewMemStore(), docdb.NewMemStore())
	if err != nil {
		return nil, nil, err
	}
	for _, s := range []docdb.Store{mem, disk, wire, sharded} {
		if err := fill(s); err != nil {
			return nil, nil, err
		}
	}
	match := docdb.Document{"approach": core.ParamUpdateApproach}

	cache := core.NewRecoveryCache(4 * int64(len(raw)))
	sealed, err := nn.ReadStateDictMapped(raw, nil)
	if err != nil {
		return nil, nil, err
	}
	cache.Put("hot", core.CachedRecovery{Spec: spec, State: sealed.Seal()})
	cat := catalog.New(in.raw)
	spanCtx := obs.WithTracer(context.Background(), obs.NewTracer())
	hist := obs.NewRegistry().Histogram("probe_us")

	const pipelineClients, pipelineOps = 8, 25
	put := func(s docdb.Store) func() error {
		return func() error { return s.Put("big", "doc", doc) }
	}
	get := func(s docdb.Store) func() error {
		return func() error { _, err := s.Get("big", "doc"); return err }
	}
	find := func(s docdb.Store) func() error {
		return func() error {
			docs, err := s.Find("probe", match)
			if err == nil && len(docs) != probeDocs {
				err = fmt.Errorf("find matched %d documents, want %d", len(docs), probeDocs)
			}
			return err
		}
	}

	return []probe{
		{"tensor.digest_mb_s", "MB/s", rate(mb, func() error { tensor.DigestAll(ts); return nil })},
		{"tensor.decode_mb_s", "MB/s", rate(mb, func() error { _, err := tensor.DecodeFrames(frameBuf, offs); return err })},
		{"tensor.alias_us", "us", per("us", func() error { _, err := tensor.AliasFrames(frameBuf, offs, nil); return err })},
		// A fresh dict each time: a dict that already holds digests
		// serializes without computing them.
		{"nn.serialize_mb_s", "MB/s", rate(mb, func() error { _, err := nn.StateDictOf(net).WriteToWithDigests(io.Discard); return err })},
		{"nn.decode_bytes_ms", "ms", per("ms", func() error { _, err := nn.ReadStateDictBytes(raw); return err })},
		{"nn.decode_mapped_ms", "ms", per("ms", func() error { _, err := nn.ReadStateDictMapped(raw, nil); return err })},
		{"nn.state_hash_ms", "ms", per("ms", func() error { nn.StateDictOf(net).Hash(); return nil })},
		{"nn.layer_hashes_ms", "ms", per("ms", func() error { nn.StateDictOf(net).LayerHashes(); return nil })},
		{"nn.seal_ms", "ms", func() (float64, error) {
			fresh, err := nn.ReadStateDictMapped(raw, nil)
			if err != nil {
				return 0, err
			}
			return per("ms", func() error { fresh.Seal(); return nil })()
		}},
		{"nn.merge_ms", "ms", per("ms", func() error { nn.Merge(sd, update); return nil })},
		{"nn.subset_ms", "ms", per("ms", func() error { sd.SubsetByLayers(classifier); return nil })},
		{"nn.load_into_ms", "ms", per("ms", func() error { return sd.LoadInto(target) })},
		{"merkle.build_us", "us", per("us", func() error { _, err := merkle.Build(baseLeaves); return err })},
		{"merkle.diff_us", "us", per("us", func() error { _, err := merkle.Diff(baseTree, changedTree); return err })},
		{"models.instantiate_ms", "ms", per("ms", func() error { _, err := models.Instantiate(spec); return err })},
		{"filestore.probe_save_mb_s", "MB/s", rate(mb, func() error { _, _, err := files.SaveAs(blobID, bytes.NewReader(raw)); return err })},
		{"filestore.probe_readall_mb_s", "MB/s", rate(mb, func() error { _, err := files.ReadAll(blobID); return err })},
		{"filestore.probe_openmapped_us", "us", per("us", func() error {
			m, err := files.OpenMapped(blobID)
			if err != nil {
				return err
			}
			return m.Close()
		})},
		{"docdb.mem.put_us", "us", per("us", put(mem))},
		{"docdb.mem.get_us", "us", per("us", get(mem))},
		{"docdb.disk.put_us", "us", per("us", put(disk))},
		{"docdb.disk.get_us", "us", per("us", get(disk))},
		{"docdb.disk.find_us", "us", per("us", find(disk))},
		{"docdb.wire.rtt_us", "us", per("us", wire.Ping)},
		{"docdb.wire.pipelined_ops_s", "op/s", rate(pipelineClients*pipelineOps, func() error {
			errs := make([]error, pipelineClients)
			var wg sync.WaitGroup
			for g := 0; g < pipelineClients; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < pipelineOps && errs[g] == nil; i++ {
						_, errs[g] = wire.Get("probe", "doc00")
					}
				}(g)
			}
			wg.Wait()
			for _, err := range errs {
				if err != nil {
					return err
				}
			}
			return nil
		})},
		{"docdb.pool.get_us", "us", per("us", func() error { _, err := pool.Get("probe", "doc00"); return err })},
		{"shard.ring.owner_ns", "ns", batchNs(1000, func() { ring.Owner("models/0123456789abcdef0123456789abcdef") })},
		{"shard.meta.put_us", "us", per("us", put(sharded))},
		{"shard.meta.find_us", "us", per("us", find(sharded))},
		{"core.cache.hit_us", "us", per("us", func() error {
			if _, ok := cache.Get("hot"); !ok {
				return fmt.Errorf("the cached state was evicted")
			}
			return nil
		})},
		{"core.cache.put_ms", "ms", func() (float64, error) {
			fresh, err := nn.ReadStateDictMapped(raw, nil)
			if err != nil {
				return 0, err
			}
			return per("ms", func() error { cache.Put("cold", core.CachedRecovery{Spec: spec, State: fresh}); return nil })()
		}},
		{"train.step_ms", "ms", per("ms", func() error { _, err := trainOnce(trainNet, ds, 1); return err })},
		{"dataset.archive_mb_s", "MB/s", rate(dataMB, func() error { _, err := ds.WriteArchive(io.Discard); return err })},
		{"dataset.unarchive_mb_s", "MB/s", rate(dataMB, func() error { _, err := dataset.ReadArchive(bytes.NewReader(archive.Bytes())); return err })},
		{"catalog.list_ms", "ms", per("ms", func() error { _, err := cat.List(); return err })},
		{"obs.span_ns", "ns", batchNs(1000, func() { _, sp := obs.StartSpan(spanCtx, "probe"); sp.End() })},
		{"obs.histogram_observe_ns", "ns", batchNs(1000, func() { hist.Observe(137) })},
	}, cleanup, nil
}
