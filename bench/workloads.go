package main

import (
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/docdb"
	"repro/internal/faultnet"
	"repro/internal/filestore"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/shard"
	"repro/internal/tensor"
	"repro/internal/train"
)

// The workloads. Each stresses other layers than the rest, so that a
// change to one layer has a workload on which it should show and one on
// which it should not (bench/README.md has the table). BENCHMARK.json
// carries the one-line reason for each.
var workloads = []*workloadDef{
	{name: "snapshot-local", setup: setupSnapshot},
	{name: "delta-chain-local", setup: setupDeltaChain},
	{name: "mixed-adaptive-local", setup: setupMixedAdaptive},
	{name: "dist-sharded-small", setup: setupDistSharded},
	{name: "serve-skewed", setup: setupServeSkewed},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

const numClasses = 1000

// localStores opens the single-machine deployment: a disk document store
// and a file store side by side, fsync and mmap at their defaults.
func localStores(dir string) (core.Stores, error) {
	meta, err := docdb.OpenDisk(filepath.Join(dir, "meta"))
	if err != nil {
		return core.Stores{}, err
	}
	files, err := filestore.Open(filepath.Join(dir, "files"))
	if err != nil {
		return core.Stores{}, err
	}
	return core.Stores{Meta: meta, Files: files}, nil
}

// pick returns full, or small on a smoke-scale run.
func pick(e *env, full, small int) int {
	if e.cfg.small {
		return small
	}
	return full
}

// dropModels deletes models (leaf first) and their oracle entries. It is
// harness work between rounds: it keeps the stores at a steady size, so a
// run measures the same thing however many rounds fit into it.
func dropModels(in *instance, cat *catalog.Catalog, ids []string) error {
	for i := len(ids) - 1; i >= 0; i-- {
		if err := cat.Delete(ids[i], true); err != nil {
			return fmt.Errorf("dropping %s: %w", ids[i], err)
		}
		in.forget(ids[i])
	}
	return nil
}

// saveRoot saves net as a chain root during set-up.
func saveRoot(c *client, svc core.SaveService, spec models.Spec, net nn.Module) (string, error) {
	id := c.save(svc, core.SaveInfo{Spec: spec, Net: net}, "root")
	if id == "" {
		return "", fmt.Errorf("saving a chain root failed")
	}
	return id, nil
}

// recoverShuffled recovers every id once, in seeded random order.
func recoverShuffled(c *client, svc core.SaveService, ids []string) {
	for _, i := range c.rng.Perm(len(ids)) {
		c.recover(svc, ids[i], fmt.Sprintf("#%d", i))
	}
}

// snapshot-local: BA, ResNet-18, full updates. One blob of 46.8 MB per
// model against a handful of small documents.
func setupSnapshot(e *env) (*instance, error) {
	spec := models.Spec{Arch: models.ResNet18Name, NumClasses: numClasses}
	net, err := models.New(spec.Arch, spec.NumClasses, e.cfg.seed)
	if err != nil {
		return nil, err
	}
	nn.SetTrainable(net, true)
	raw, err := localStores(e.dir)
	if err != nil {
		return nil, err
	}
	in := newInstance(e, 1, spec, net)
	in.raw = raw
	svc := core.NewBaseline(e.stores(0, raw))
	cat := catalog.New(raw)
	perRound := pick(e, 2, 1)
	in.round = func(c *client) error {
		ids := make([]string, 0, perRound)
		for i := 0; i < perRound; i++ {
			perturb(net, c.rng)
			if id := c.save(svc, core.SaveInfo{Spec: spec, Net: net}, "v"); id != "" {
				ids = append(ids, id)
			}
		}
		recoverShuffled(c, svc, ids)
		return dropModels(in, cat, ids)
	}
	return in, in.round(in.clients[0]) // one unmeasured round warms the page cache
}

// chainRoots saves n roots of arch through svc and keeps a copy of each
// root's state, so that a round can branch a fresh chain off any of them.
type chainRoots struct {
	ids    []string
	states []*nn.StateDict
}

func saveChainRoots(c *client, svc core.SaveService, spec models.Spec, net nn.Module, n int, seed uint64) (*chainRoots, error) {
	r := new(chainRoots)
	for i := 0; i < n; i++ {
		models.Initialize(spec.Arch, net, seed+uint64(i))
		id, err := saveRoot(c, svc, spec, net)
		if err != nil {
			return nil, err
		}
		r.ids = append(r.ids, id)
		r.states = append(r.states, nn.StateDictOf(net).Clone())
	}
	return r, nil
}

// delta-chain-local: PUA, MobileNetV2, classifier-only updates. Small
// blobs, many documents: Merkle diff, the layer-hash document, the
// transaction's staging writes and an fsync per document carry the saves,
// the chain walk carries the recovers.
func setupDeltaChain(e *env) (*instance, error) {
	spec := models.Spec{Arch: models.MobileNetV2Name, NumClasses: numClasses}
	net, err := models.New(spec.Arch, spec.NumClasses, e.cfg.seed)
	if err != nil {
		return nil, err
	}
	models.FreezeForPartialUpdate(spec.Arch, net)
	raw, err := localStores(e.dir)
	if err != nil {
		return nil, err
	}
	in := newInstance(e, 1, spec, net)
	in.raw = raw
	svc := core.NewParamUpdate(e.stores(0, raw))
	cat := catalog.New(raw)
	roots, err := saveChainRoots(in.clients[0], svc, spec, net, pick(e, 4, 1), e.cfg.seed)
	if err != nil {
		return nil, err
	}
	depth := pick(e, 8, 3)
	next := 0
	in.round = func(c *client) error {
		r := next % len(roots.ids)
		next++
		if err := roots.states[r].LoadInto(net); err != nil {
			return err
		}
		base := roots.ids[r]
		ids := make([]string, 0, depth)
		for d := 1; d <= depth; d++ {
			perturb(net, c.rng)
			id := c.save(svc, core.SaveInfo{Spec: spec, Net: net, BaseID: base}, fmt.Sprintf("r%d.d%d", r, d))
			if id == "" {
				break
			}
			ids = append(ids, id)
			base = id
		}
		recoverShuffled(c, svc, ids)
		return dropModels(in, cat, ids)
	}
	return in, in.round(in.clients[0])
}

// trainOnce runs the short deterministic training a provenance link
// records: 1 epoch × 1 batch × 2 images at 32×32.
func trainOnce(net nn.Module, ds *dataset.Dataset, seed uint64) (*core.ProvenanceRecord, error) {
	loader, err := train.NewDataLoader(ds, train.LoaderConfig{BatchSize: 2, OutH: 32, OutW: 32, Shuffle: true, Seed: seed})
	if err != nil {
		return nil, err
	}
	svc := train.NewImageClassifierTrainService(
		train.ServiceConfig{Epochs: 1, BatchesPerEpoch: 1, Seed: seed, Deterministic: true},
		loader, train.NewSGD(train.SGDConfig{LR: 0.001, Momentum: 0.9, ClipNorm: 1}))
	rec, err := core.NewProvenanceRecord(svc)
	if err != nil {
		return nil, err
	}
	if _, err := rec.Train(net); err != nil {
		return nil, err
	}
	return rec, nil
}

// provenanceDataScale sizes the training set below MobileNetV2's 14 MB of
// trainable parameters, so that the adaptive heuristic picks provenance
// for a fully trainable link: 2.9 MB.
const provenanceDataScale = 0.04

// mixed-adaptive-local: core.NewAdaptive over chains that mix parameter
// updates with one provenance link. The only workload that trains,
// archives a dataset and replays training at recovery.
func setupMixedAdaptive(e *env) (*instance, error) {
	spec := models.Spec{Arch: models.MobileNetV2Name, NumClasses: numClasses}
	net, err := models.New(spec.Arch, spec.NumClasses, e.cfg.seed)
	if err != nil {
		return nil, err
	}
	models.FreezeForPartialUpdate(spec.Arch, net)
	ds, err := dataset.Generate(dataset.CO512(provenanceDataScale))
	if err != nil {
		return nil, err
	}
	raw, err := localStores(e.dir)
	if err != nil {
		return nil, err
	}
	in := newInstance(e, 1, spec, net)
	in.raw, in.data = raw, ds
	svc := core.NewAdaptive(e.stores(0, raw))
	cat := catalog.New(raw)
	roots, err := saveChainRoots(in.clients[0], svc, spec, net, pick(e, 2, 1), e.cfg.seed)
	if err != nil {
		return nil, err
	}
	// true marks the provenance link of a chain.
	links := []bool{false, false, true, false, false}
	if e.cfg.small {
		links = []bool{false, true, false}
	}
	next := 0
	in.round = func(c *client) error {
		r := next % len(roots.ids)
		next++
		if err := roots.states[r].LoadInto(net); err != nil {
			return err
		}
		base := roots.ids[r]
		ids := make([]string, 0, len(links))
		for d, provenance := range links {
			info := core.SaveInfo{Spec: spec, Net: net, BaseID: base}
			want := core.ParamUpdateApproach
			if provenance {
				want = core.ProvenanceApproach
				nn.SetTrainable(net, true)
				// The seed stays below 2^53: documents carry numbers as
				// float64, and a larger seed would not replay.
				rec, err := trainOnce(net, ds, uint64(c.rng.Intn(1<<30)))
				if err != nil {
					return err
				}
				info.Provenance = rec
			} else {
				perturb(net, c.rng)
			}
			id := c.save(svc, info, fmt.Sprintf("r%d.d%d", r, d+1))
			models.FreezeForPartialUpdate(spec.Arch, net)
			if id == "" {
				break
			}
			if c.last.Approach != want {
				return fmt.Errorf("link %d was saved as %s, want %s", d+1, c.last.Approach, want)
			}
			ids = append(ids, id)
			base = id
		}
		recoverShuffled(c, svc, ids)
		return dropModels(in, cat, ids)
	}
	return in, in.round(in.clients[0])
}

// Shape of dist-sharded-small.
const (
	distShards   = 2
	distPoolSize = 2
	distDelay    = 200 * time.Microsecond
	distPhase    = 10 // U3 versions a node derives before it starts over from U1
	distKeep     = 2  // phases per node that stay recoverable
	distListEach = 25 // a node lists the catalog after every n-th op
)

// dist-sharded-small: two document servers and two file directories
// behind a consistent-hash ring, a latency-only link, TinyCNN. Blobs are
// negligible, so the metadata path is the work: document encoding, wire
// framing, mux, pool checkout, ring routing, round trips per save.
func setupDistSharded(e *env) (*instance, error) {
	spec := models.Spec{Arch: models.TinyCNNName, NumClasses: numClasses}
	ring, err := shard.NewRing(distShards, 0)
	if err != nil {
		return nil, err
	}
	var started closers
	fail := func(err error) (*instance, error) {
		_ = started.close() // the set-up error is the one to report
		return nil, err
	}
	link := docdb.ClientOptions{Dialer: faultnet.Dialer(faultnet.Config{Seed: e.cfg.seed, DelayRate: 1, Delay: distDelay})}
	mems := make([]docdb.Store, distShards)
	pools := make([]docdb.Store, distShards)
	blobs := make([]filestore.Blobs, distShards)
	for i := 0; i < distShards; i++ {
		mems[i] = docdb.NewMemStore()
		srv, err := docdb.NewServer(mems[i], "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		started = append(started, srv.Close)
		pool, err := docdb.DialPool(srv.Addr(), distPoolSize, link)
		if err != nil {
			return fail(err)
		}
		started = append(started, pool.Close)
		pools[i] = pool
		if blobs[i], err = filestore.Open(filepath.Join(e.dir, fmt.Sprintf("shard%d", i))); err != nil {
			return fail(err)
		}
	}
	files, err := shard.NewFiles(ring, blobs...)
	if err != nil {
		return fail(err)
	}
	meta, err := shard.NewMeta(ring, pools...)
	if err != nil {
		return fail(err)
	}
	// The harness prunes through the servers' own engines, not over the
	// delayed link, so that pruning takes nothing from the clients' pools.
	direct, err := shard.NewMeta(ring, mems...)
	if err != nil {
		return fail(err)
	}
	prune := catalog.New(core.Stores{Meta: direct, Files: files})

	root, err := models.New(spec.Arch, spec.NumClasses, e.cfg.seed)
	if err != nil {
		return fail(err)
	}
	models.FreezeForPartialUpdate(spec.Arch, root)
	in := newInstance(e, 2, spec, root)
	in.raw = core.Stores{Meta: meta, Files: files}
	in.close = started.close

	type node struct {
		svc    *core.ParamUpdate
		cat    *catalog.Catalog
		net    nn.Module
		phases [][]string
		ops    int
	}
	nodes := make([]*node, len(in.clients))
	for c := range nodes {
		st := e.stores(c, in.raw)
		net, err := models.New(spec.Arch, spec.NumClasses, e.cfg.seed)
		if err != nil {
			return fail(err)
		}
		models.FreezeForPartialUpdate(spec.Arch, net)
		nodes[c] = &node{svc: core.NewParamUpdate(st), cat: catalog.New(st), net: net}
	}
	rootID, err := saveRoot(in.clients[0], nodes[0].svc, spec, root)
	if err != nil {
		return fail(err)
	}
	rootState := nn.StateDictOf(root).Clone()

	var (
		liveMu sync.Mutex
		live   []string // models any node may be asked to recover
		// pruneMu keeps a model from being deleted under a recovery or a
		// listing: they hold it shared, pruning holds it exclusively. All
		// take it outside the timed region.
		pruneMu sync.RWMutex
	)
	retire := func(ids []string) error {
		gone := make(map[string]bool, len(ids))
		for _, id := range ids {
			gone[id] = true
		}
		liveMu.Lock()
		kept := live[:0]
		for _, id := range live {
			if !gone[id] {
				kept = append(kept, id)
			}
		}
		live = kept
		liveMu.Unlock()
		pruneMu.Lock()
		defer pruneMu.Unlock()
		return dropModels(in, prune, ids)
	}
	in.round = func(c *client) error {
		n := nodes[c.idx]
		if len(n.phases) > distKeep {
			if err := retire(n.phases[0]); err != nil {
				return err
			}
			n.phases = n.phases[1:]
		}
		if err := rootState.LoadInto(n.net); err != nil {
			return err
		}
		base := rootID
		var phase []string
		// tick counts one op of this node and lists the catalog after
		// every distListEach-th.
		tick := func() error {
			n.ops++
			if n.ops%distListEach != 0 {
				return nil
			}
			c.note("list")
			end := func() {}
			if c.tr != nil && c.measuring {
				end = c.tr.begin(opOther, "op.list")
			}
			pruneMu.RLock() // a listing reads every live model
			_, err := n.cat.List()
			pruneMu.RUnlock()
			end()
			return err
		}
		for i := 0; i < distPhase; i++ {
			perturb(n.net, c.rng)
			id := c.save(n.svc, core.SaveInfo{Spec: spec, Net: n.net, BaseID: base}, fmt.Sprintf("n%d", c.idx))
			if err := tick(); err != nil {
				return err
			}
			if id != "" {
				phase = append(phase, id)
				base = id
				liveMu.Lock()
				live = append(live, id)
				liveMu.Unlock()
			}
			pruneMu.RLock()
			liveMu.Lock()
			target := rootID
			if len(live) > 0 {
				target = live[c.rng.Intn(len(live))]
			}
			liveMu.Unlock()
			c.recover(n.svc, target, "any")
			pruneMu.RUnlock()
			if err := tick(); err != nil {
				return err
			}
		}
		n.phases = append(n.phases, phase)
		return nil
	}
	for _, c := range in.clients {
		if err := in.round(c); err != nil {
			return fail(err)
		}
	}
	return in, nil
}

// Shape of serve-skewed.
const (
	serveZipf      = 1.1
	serveDeck      = 200 // requests in one pass through the Zipf deck
	servePublishIn = 10  // every n-th request publishes instead of reading
	serveWarmUp    = 8   // unmeasured requests per client before the clock starts
)

// zipfDeck returns a deck of about size model slots in which rank r
// appears in proportion to 1/(r+1)^s, every rank at least once. Clients
// deal from a shuffled deck instead of drawing each request on its own:
// the request mix is Zipf all the same, and the number of requests a model
// gets no longer varies from seed to seed, which it would by a few percent
// over the thousand-odd requests of a run.
func zipfDeck(ranks []int, s float64, size int) []int {
	var sum float64
	for r := range ranks {
		sum += 1 / math.Pow(float64(r+1), s)
	}
	var deck []int
	for r, slot := range ranks {
		n := int(math.Round(float64(size) / math.Pow(float64(r+1), s) / sum))
		for i := 0; i < max(n, 1); i++ {
			deck = append(deck, slot)
		}
	}
	return deck
}

// serve-skewed: reads beside writes on a working set eight times the cache.
// Two clients ask for models in Zipf proportions and recover them at the
// state level through one shared recovery cache; every 10th request
// publishes a new leaf version on a chain instead.
func setupServeSkewed(e *env) (*instance, error) {
	spec := models.Spec{Arch: models.MobileNetV2Name, NumClasses: numClasses}
	net, err := models.New(spec.Arch, spec.NumClasses, e.cfg.seed)
	if err != nil {
		return nil, err
	}
	models.FreezeForPartialUpdate(spec.Arch, net)
	raw, err := localStores(e.dir)
	if err != nil {
		return nil, err
	}
	in := newInstance(e, 2, spec, net)
	in.raw = raw
	chains, depth := pick(e, 8, 2), pick(e, 4, 2)
	// The cache holds an eighth of the chains × depth models. With a
	// quarter, as first specified, half the requests were hits and the
	// median flipped between the hit path (microseconds) and the miss path
	// (tens of milliseconds) from run to run; with an eighth about a third
	// hit, so the median is a miss, the hit path shows in ops_per_s, and
	// both repeat.
	stateBytes := nn.StateDictOf(net).SerializedSize()
	cache := core.NewRecoveryCache(int64(max(chains*depth/8, 1)) * stateBytes)

	type server struct {
		svc     *core.ParamUpdate
		scratch nn.Module       // the net a publish is prepared in
		seen    []*nn.StateDict // version last instantiated, per model slot
		deck    []int           // model slots still to ask for, shuffled
		chain   int             // chain of the next publish
	}
	servers := make([]*server, len(in.clients))
	for c := range servers {
		svc := core.NewParamUpdate(e.stores(c, raw))
		svc.SetRecoveryCache(cache)
		scratch, err := models.New(spec.Arch, spec.NumClasses, e.cfg.seed)
		if err != nil {
			return nil, err
		}
		models.FreezeForPartialUpdate(spec.Arch, scratch)
		servers[c] = &server{svc: svc, scratch: scratch, seen: make([]*nn.StateDict, chains*depth), chain: c * chains / len(servers)}
	}

	// pop[k*depth+d] is the model at depth d of chain k. A publish
	// replaces a chain's leaf with a new version derived from the leaf's
	// parent, so the population keeps its size and its depths.
	var popMu sync.RWMutex
	pop := make([]string, chains*depth)
	type chain struct {
		mu       sync.Mutex
		parentID string        // the model the leaf derives from
		parent   *nn.StateDict // and its state
	}
	chainOf := make([]*chain, chains)
	c0 := in.clients[0]
	for k := 0; k < chains; k++ {
		models.Initialize(spec.Arch, net, e.cfg.seed+uint64(k))
		chainOf[k] = new(chain)
		base := ""
		for d := 0; d < depth; d++ {
			if d > 0 {
				perturb(net, c0.rng)
			}
			id := c0.save(servers[0].svc, core.SaveInfo{Spec: spec, Net: net, BaseID: base}, "setup")
			if id == "" {
				return nil, fmt.Errorf("saving chain %d depth %d failed", k, d)
			}
			pop[k*depth+d] = id
			base = id
			if d == depth-2 {
				chainOf[k].parentID, chainOf[k].parent = id, nn.StateDictOf(net).Clone()
			}
		}
	}
	ranks := tensor.NewRNG(e.cfg.seed).Perm(len(pop)) // rank -> model slot
	deck := zipfDeck(ranks, serveZipf, serveDeck)

	read := func(c *client) {
		s := servers[c.idx]
		if len(s.deck) == 0 {
			for _, i := range c.rng.Perm(len(deck)) {
				s.deck = append(s.deck, deck[i])
			}
		}
		slot := s.deck[len(s.deck)-1]
		s.deck = s.deck[:len(s.deck)-1]
		popMu.RLock()
		id := pop[slot]
		popMu.RUnlock()
		c.note(fmt.Sprintf("read slot %d", slot))
		var rs *core.RecoveredState
		err := c.timed(opRecover, "op.recover", func() (err error) {
			if rs, err = s.svc.RecoverState(id, recoverOpts); err != nil {
				return err
			}
			// A serving process rebuilds its net only when the state it
			// is handed is another version than the one it built from.
			if v := rs.State.Version(); v != s.seen[slot] {
				if _, err = rs.Instantiate(); err != nil {
					return err
				}
				s.seen[slot] = v
			}
			return nil
		})
		c.verify(fmt.Sprintf("slot %d", slot), id, err, func() string { return rs.State.Hash() })
	}
	publish := func(c *client) error {
		s := servers[c.idx]
		k := s.chain
		s.chain = (s.chain + 1) % chains
		ch := chainOf[k]
		ch.mu.Lock()
		defer ch.mu.Unlock()
		if err := ch.parent.LoadInto(s.scratch); err != nil {
			return err
		}
		perturb(s.scratch, c.rng)
		id := c.save(s.svc, core.SaveInfo{Spec: spec, Net: s.scratch, BaseID: ch.parentID}, fmt.Sprintf("publish chain %d", k))
		if id != "" {
			popMu.Lock()
			pop[k*depth+depth-1] = id
			popMu.Unlock()
		}
		return nil
	}
	perRound := pick(e, servePublishIn, 5)
	in.round = func(c *client) error {
		for i := 1; i < perRound; i++ {
			read(c)
		}
		return publish(c)
	}
	for _, c := range in.clients {
		for i := 0; i < pick(e, serveWarmUp, 2); i++ {
			read(c)
		}
	}
	return in, nil
}
