package shard_test

// Sharding must be invisible in the stored bytes: the same save sequence
// through 1, 2, and 4 shards — and through a ring with a different
// virtual-node layout — must persist byte-identical artifacts for every
// approach. This is the scale-out counterpart of core's determinism suite:
// if a shard layout leaked into any stored document or blob, PUA diffing
// and MPA checksum verification would break the moment a deployment was
// resharded.

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/docdb"
	"repro/internal/filestore"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/shard"
	"repro/internal/train"
)

// layout is one shard topology under test. vnodes=0 selects the default;
// the "resharded" layout keeps the shard count but moves every virtual
// node, so keys land on different backends than in the default 4-shard
// ring — stored bytes still must not change.
type layout struct {
	name   string
	shards int
	vnodes int
}

func layouts() []layout {
	return []layout{
		{"shards=1", 1, 0},
		{"shards=2", 2, 0},
		{"shards=4", 4, 0},
		{"shards=4-resharded", 4, 17},
	}
}

// shardedStores builds a fully local sharded deployment: N in-memory
// document stores and N on-disk file stores behind one ring.
func shardedStores(t *testing.T, l layout) core.Stores {
	t.Helper()
	ring, err := shard.NewRing(l.shards, l.vnodes)
	if err != nil {
		t.Fatal(err)
	}
	metas := make([]docdb.Store, l.shards)
	blobs := make([]filestore.Blobs, l.shards)
	for i := 0; i < l.shards; i++ {
		metas[i] = docdb.NewMemStore()
		fs, err := filestore.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		blobs[i] = fs
	}
	meta, err := shard.NewMeta(ring, metas...)
	if err != nil {
		t.Fatal(err)
	}
	files, err := shard.NewFiles(ring, blobs...)
	if err != nil {
		t.Fatal(err)
	}
	return core.Stores{Meta: meta, Files: files}
}

func tinySpec() models.Spec { return models.Spec{Arch: models.TinyCNNName, NumClasses: 4} }

func tinyNet(t *testing.T, seed uint64) nn.Module {
	t.Helper()
	m, err := models.New(models.TinyCNNName, 4, seed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func tinyDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.Spec{Name: "shard-test", Images: 16, H: 12, W: 12, Classes: 4, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// trainDerived mutates net with a short deterministic training run and
// returns the provenance record describing it. The run is seeded, so the
// derived weights are identical across every layout.
func trainDerived(t *testing.T, net nn.Module, ds *dataset.Dataset) *core.ProvenanceRecord {
	t.Helper()
	loader, err := train.NewDataLoader(ds, train.LoaderConfig{BatchSize: 4, OutH: 12, OutW: 12, Shuffle: true, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	svc := train.NewImageClassifierTrainService(
		train.ServiceConfig{Epochs: 2, BatchesPerEpoch: 2, Seed: 41, Deterministic: true},
		loader,
		train.NewSGD(train.SGDConfig{LR: 0.05, Momentum: 0.9}),
	)
	rec, err := core.NewProvenanceRecord(svc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Train(net); err != nil {
		t.Fatal(err)
	}
	return rec
}

func capture(t *testing.T, stores core.Stores, id string) core.Artifacts {
	t.Helper()
	art, err := core.CaptureArtifacts(stores, id)
	if err != nil {
		t.Fatal(err)
	}
	return art
}

func assertSameArtifacts(t *testing.T, label string, want, got core.Artifacts) {
	t.Helper()
	check := func(field string, x, y []byte) {
		t.Helper()
		if !bytes.Equal(x, y) {
			t.Errorf("%s: stored %s differ across shard layouts:\nreference: %s\nthis layout: %s", label, field, x, y)
		}
	}
	check("root document", want.Root, got.Root)
	check("environment document", want.Env, got.Env)
	check("layer-hash document", want.LayerHashes, got.LayerHashes)
	check("parameter bytes", want.Params, got.Params)
	check("model-code bytes", want.Code, got.Code)
}

// saveFlow runs one approach's full save sequence against stores and
// returns the captured artifacts of every model it persisted, in order.
type saveFlow func(t *testing.T, stores core.Stores) []core.Artifacts

func flows(t *testing.T) map[string]saveFlow {
	t.Helper()
	return map[string]saveFlow{
		"baseline": func(t *testing.T, stores core.Stores) []core.Artifacts {
			res, err := core.NewBaseline(stores).Save(core.SaveInfo{Spec: tinySpec(), Net: tinyNet(t, 9), WithChecksums: true})
			if err != nil {
				t.Fatal(err)
			}
			return []core.Artifacts{capture(t, stores, res.ID)}
		},
		"pua": func(t *testing.T, stores core.Stores) []core.Artifacts {
			pua := core.NewParamUpdate(stores)
			net := tinyNet(t, 9)
			base, err := pua.Save(core.SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true})
			if err != nil {
				t.Fatal(err)
			}
			trainDerived(t, net, tinyDataset(t))
			derived, err := pua.Save(core.SaveInfo{Spec: tinySpec(), Net: net, BaseID: base.ID, WithChecksums: true})
			if err != nil {
				t.Fatal(err)
			}
			return []core.Artifacts{capture(t, stores, base.ID), capture(t, stores, derived.ID)}
		},
		"mpa": func(t *testing.T, stores core.Stores) []core.Artifacts {
			mpa := core.NewProvenance(stores)
			net := tinyNet(t, 11)
			base, err := mpa.Save(core.SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true})
			if err != nil {
				t.Fatal(err)
			}
			rec := trainDerived(t, net, tinyDataset(t))
			derived, err := mpa.Save(core.SaveInfo{Spec: tinySpec(), Net: net, BaseID: base.ID, WithChecksums: true, Provenance: rec})
			if err != nil {
				t.Fatal(err)
			}
			return []core.Artifacts{capture(t, stores, base.ID), capture(t, stores, derived.ID)}
		},
		"adaptive": func(t *testing.T, stores core.Stores) []core.Artifacts {
			ad := core.NewAdaptive(stores)
			net := tinyNet(t, 15)
			base, err := ad.Save(core.SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true})
			if err != nil {
				t.Fatal(err)
			}
			// Freeze so the heuristic's input (trainable bytes vs dataset
			// bytes) is itself deterministic across layouts; whichever
			// branch it picks, it must pick the same one everywhere.
			models.FreezeForPartialUpdate(models.TinyCNNName, net)
			rec := trainDerived(t, net, tinyDataset(t))
			derived, err := ad.Save(core.SaveInfo{Spec: tinySpec(), Net: net, BaseID: base.ID, WithChecksums: true, Provenance: rec})
			if err != nil {
				t.Fatal(err)
			}
			return []core.Artifacts{capture(t, stores, base.ID), capture(t, stores, derived.ID)}
		},
	}
}

// TestArtifactsByteIdenticalAcrossShardLayouts runs every approach's save
// sequence against each shard layout and requires all stored artifacts to
// be byte-identical to the single-shard reference.
func TestArtifactsByteIdenticalAcrossShardLayouts(t *testing.T) {
	for name, flow := range flows(t) {
		t.Run(name, func(t *testing.T) {
			var ref []core.Artifacts
			for _, l := range layouts() {
				arts := flow(t, shardedStores(t, l))
				if ref == nil {
					ref = arts
					continue
				}
				if len(arts) != len(ref) {
					t.Fatalf("%s: layout %s persisted %d models, reference %d", name, l.name, len(arts), len(ref))
				}
				for i := range arts {
					assertSameArtifacts(t, fmt.Sprintf("%s/%s/model-%d", name, l.name, i), ref[i], arts[i])
				}
			}
		})
	}
}

// countingStore counts the model-document reads one backend serves.
type countingStore struct {
	docdb.Store
	chains, gets atomic.Int64
}

func (c *countingStore) Chain(col, id, next, stop string) ([]docdb.Document, error) {
	if col == core.ColModels {
		c.chains.Add(1)
	}
	return c.Store.Chain(col, id, next, stop)
}

func (c *countingStore) Get(col, id string) (docdb.Document, error) {
	if col == core.ColModels {
		c.gets.Add(1)
	}
	return c.Store.Get(col, id)
}

// countedMeta is a sharded document store over counting in-memory
// backends.
func countedMeta(t *testing.T, shards, vnodes int) (*shard.Ring, *shard.Meta, []*countingStore) {
	t.Helper()
	ring, err := shard.NewRing(shards, vnodes)
	if err != nil {
		t.Fatal(err)
	}
	counted := make([]*countingStore, shards)
	backends := make([]docdb.Store, shards)
	for i := range backends {
		counted[i] = &countingStore{Store: docdb.NewMemStore()}
		backends[i] = counted[i]
	}
	meta, err := shard.NewMeta(ring, backends...)
	if err != nil {
		t.Fatal(err)
	}
	return ring, meta, counted
}

// chainReads returns the model-document chain reads and gets each backend
// served since the last call, and zeroes them.
func chainReads(counted []*countingStore) (chains, gets []int64) {
	for _, c := range counted {
		chains = append(chains, c.chains.Swap(0))
		gets = append(gets, c.gets.Swap(0))
	}
	return chains, gets
}

// A lineage's root documents are placed on one shard, so a recovery reads
// its whole chain with one request to that shard. Placement is only an
// optimisation: after re-sharding, which scatters the lineage, the chain is
// read in several requests and the recovered state and every stored
// artifact are still identical.
func TestLineageIsPlacedTogetherAndReadInOneChain(t *testing.T) {
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ring, meta, counted := countedMeta(t, shards, 0)
			stores := shardedStores(t, layout{shards: shards})
			stores.Meta = meta

			// Snapshot, two parameter updates, a provenance link.
			pua := core.NewParamUpdate(stores)
			net := tinyNet(t, 29)
			var ids, hashes []string
			save := func(svc core.SaveService, rec *core.ProvenanceRecord) {
				base := ""
				if len(ids) > 0 {
					base = ids[len(ids)-1]
				}
				res, err := svc.Save(core.SaveInfo{Spec: tinySpec(), Net: net, BaseID: base, WithChecksums: true, Provenance: rec})
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, res.ID)
				hashes = append(hashes, nn.StateDictOf(net).Hash())
			}
			save(pua, nil)
			models.FreezeForPartialUpdate(models.TinyCNNName, net)
			for i := 0; i < 2; i++ {
				trainDerived(t, net, tinyDataset(t))
				save(pua, nil)
			}
			nn.SetTrainable(net, true)
			save(core.NewProvenance(stores), trainDerived(t, net, tinyDataset(t)))

			home := ring.Owner(core.ColModels + "/" + ids[0])
			for i, id := range ids {
				if o := ring.Owner(core.ColModels + "/" + id); o != home {
					t.Fatalf("model %d of the lineage is on shard %d, its root on shard %d", i, o, home)
				}
			}
			var arts []core.Artifacts
			for _, id := range ids {
				arts = append(arts, capture(t, stores, id))
			}

			recoverLeaf := func(stores core.Stores) {
				t.Helper()
				rs, err := core.NewAdaptive(stores).RecoverState(ids[len(ids)-1], core.RecoverOptions{VerifyChecksums: true})
				if err != nil {
					t.Fatal(err)
				}
				if got := rs.State.Hash(); got != hashes[len(hashes)-1] {
					t.Fatalf("recovered state hashes to %s, saved %s", got, hashes[len(hashes)-1])
				}
			}
			chainReads(counted)
			recoverLeaf(stores)
			chains, gets := chainReads(counted)
			for i := range chains {
				want := int64(0)
				if i == home {
					want = 1
				}
				if chains[i] != want || gets[i] != 0 {
					t.Errorf("shard %d served %d chain reads and %d gets of model documents, want %d and 0", i, chains[i], gets[i], want)
				}
			}

			// Re-shard the documents onto a ring that scatters the lineage.
			var (
				moved   core.Stores
				scatter []*countingStore
			)
			for vnodes := 17; moved.Meta == nil; vnodes++ {
				r, m, c := countedMeta(t, shards, vnodes)
				owners := map[int]bool{}
				for _, id := range ids {
					owners[r.Owner(core.ColModels+"/"+id)] = true
				}
				if len(owners) > 1 {
					moved, scatter = core.Stores{Meta: m, Files: stores.Files}, c
				}
			}
			for _, col := range []string{core.ColModels, core.ColEnvironments, core.ColLayerHashes, core.ColServices} {
				docIDs, err := meta.IDs(col)
				if err != nil {
					t.Fatal(err)
				}
				for _, id := range docIDs {
					doc, err := meta.Get(col, id)
					if err != nil {
						t.Fatal(err)
					}
					if err := moved.Meta.Put(col, id, doc); err != nil {
						t.Fatal(err)
					}
				}
			}
			chainReads(scatter)
			recoverLeaf(moved)
			if chains, _ := chainReads(scatter); sum(chains) < 2 {
				t.Errorf("a lineage scattered over shards was read in %d chain reads, want one per run of documents on a shard", sum(chains))
			}
			for i, id := range ids {
				assertSameArtifacts(t, fmt.Sprintf("re-sharded model %d", i), arts[i], capture(t, moved, id))
			}
		})
	}
}

func sum(xs []int64) (s int64) {
	for _, x := range xs {
		s += x
	}
	return s
}

// TestShardedRecoverMatchesSingleBackend saves through every shard layout
// and recovers through the adaptive approach, requiring the recovered
// weights to equal the saved net bit for bit.
func TestShardedRecoverMatchesSingleBackend(t *testing.T) {
	for _, l := range layouts() {
		t.Run(l.name, func(t *testing.T) {
			stores := shardedStores(t, l)
			ad := core.NewAdaptive(stores)
			net := tinyNet(t, 23)
			res, err := ad.Save(core.SaveInfo{Spec: tinySpec(), Net: net, WithChecksums: true})
			if err != nil {
				t.Fatal(err)
			}
			got, err := ad.Recover(res.ID, core.RecoverOptions{VerifyChecksums: true})
			if err != nil {
				t.Fatal(err)
			}
			if !nn.StateDictOf(net).Equal(nn.StateDictOf(got.Net)) {
				t.Fatal("recovered model is not bit-identical to the saved model")
			}
		})
	}
}
