package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// saveChecksums and recoverOpts are fixed for every workload: checksums
// are stored at save and verified at recovery, so time-to-recover is the
// paper's TTR including verification.
const saveChecksums = true

var recoverOpts = core.RecoverOptions{VerifyChecksums: true}

// config is one run of one workload.
type config struct {
	seed    uint64
	seconds float64
	// rounds, when > 0, runs exactly that many rounds per client instead
	// of running for seconds: the tests use it to get a fixed op sequence.
	rounds int
	// small shrinks every workload's shape (fewer roots, shorter chains,
	// one probe iteration) so the smoke tests finish in seconds.
	small bool
	// dir is the directory the run may write under.
	dir string
	// afterSetup, when set, runs between set-up and the measured phase
	// with the instance's directory; the corruption test damages a blob
	// there.
	afterSetup func(dir string)
	// schedule, when set, receives the op sequence of client 0.
	schedule *[]string
}

// workloadDef names a workload; setup builds one instance of it.
type workloadDef struct {
	name  string
	setup func(e *env) (*instance, error)
}

// env is what a workload's set-up gets: where to write, the seed, and
// whether the stores it builds are to be traced.
type env struct {
	cfg    config
	dir    string
	tracer *obs.Tracer // nil when the pass is untraced
	traces []*opTrace  // one per client when traced, made by newInstance
}

// stores returns the stores client c saves and recovers through: s itself
// on an untraced pass, s behind the timing decorators on a traced one.
func (e *env) stores(c int, s core.Stores) core.Stores {
	if e.tracer == nil {
		return s
	}
	t := e.traces[c]
	return core.Stores{Meta: tracedMeta{s.Meta, t}, Files: tracedFiles{s.Files, t}}
}

// instance is one set-up workload, ready to run rounds.
type instance struct {
	env     *env
	clients []*client
	// round runs one round of client c: a fixed mix of saves and recovers,
	// so that counts taken over whole rounds repeat exactly.
	round func(c *client) error
	// close stops servers and closes stores.
	close func() error
	// raw are the undecorated stores, for harness work and probes.
	raw core.Stores
	// subject is what the probes time: the workload's own model.
	spec models.Spec
	net  nn.Module
	data *dataset.Dataset

	mu     sync.Mutex
	hashes map[string]string // model id -> state hash recorded at save
}

func newInstance(e *env, nclients int, spec models.Spec, net nn.Module) *instance {
	in := &instance{env: e, spec: spec, net: net, hashes: make(map[string]string), close: func() error { return nil }}
	for c := 0; c < nclients; c++ {
		cl := &client{idx: c, in: in, rng: tensor.NewRNG(e.cfg.seed*1000003 + uint64(c) + 1)}
		if e.tracer != nil {
			cl.tr = newOpTrace(e.tracer)
			e.traces = append(e.traces, cl.tr)
		}
		in.clients = append(in.clients, cl)
	}
	return in
}

func (in *instance) remember(id, hash string) {
	in.mu.Lock()
	in.hashes[id] = hash
	in.mu.Unlock()
}

func (in *instance) want(id string) string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.hashes[id]
}

func (in *instance) forget(id string) {
	in.mu.Lock()
	delete(in.hashes, id)
	in.mu.Unlock()
}

// Counters read around each traced operation, so that their movement can
// be charged to saves or to recovers. The oracle hashes models too, which
// is why a whole-pass delta of tensor.digest_ops would not do.
var watched = []*obs.Counter{
	obs.Default().Counter("tensor.digest_ops"),
	obs.Default().Counter("filestore.mmap_opens"),
	obs.Default().Counter("filestore.reads"),
}

// client is one closed-loop caller: it issues its next operation only
// after the previous one returned.
type client struct {
	idx int
	in  *instance
	rng *tensor.RNG
	tr  *opTrace

	measuring bool
	lat       [2][]time.Duration // by opSave, opRecover
	attempted int
	failed    int
	stored    int64 // Σ SaveResult.StorageBytes
	full      int64 // Σ serialized full-state bytes of the models saved
	watch     [2][]int64
	last      core.SaveResult // the latest successful save
	firstErr  error
}

func (c *client) note(op string) {
	if s := c.in.env.cfg.schedule; s != nil && c.idx == 0 && c.measuring {
		*s = append(*s, op)
	}
}

// timed runs fn as one measured operation of the given kind.
func (c *client) timed(kind opKind, name string, fn func() error) error {
	var before []int64
	end := func() {}
	if c.tr != nil && c.measuring {
		before = readCounters(watched)
		end = c.tr.begin(kind, name)
	}
	start := time.Now()
	err := fn()
	d := time.Since(start)
	end()
	if !c.measuring {
		return err
	}
	c.attempted++
	c.lat[kind] = append(c.lat[kind], d)
	if before != nil {
		after := readCounters(watched)
		if c.watch[kind] == nil {
			c.watch[kind] = make([]int64, len(watched))
		}
		for i := range after {
			c.watch[kind][i] += after[i] - before[i]
		}
	}
	return err
}

// fail counts a failed operation. Outside the measured phase it only
// keeps the error, which set-up then reports.
func (c *client) fail(err error) {
	if c.measuring {
		c.failed++
	}
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// save saves info through svc as one measured save and records the hash
// the model had, for the oracle. It returns "" when the save failed.
func (c *client) save(svc core.SaveService, info core.SaveInfo, label string) string {
	info.WithChecksums = saveChecksums
	sd := nn.StateDictOf(info.Net)
	hash, full := sd.Hash(), sd.SerializedSize()
	c.note("save " + label + " " + hash[:8])
	var res core.SaveResult
	err := c.timed(opSave, "op.save", func() (err error) {
		res, err = svc.Save(info)
		return err
	})
	if err != nil {
		c.fail(fmt.Errorf("save %s: %w", label, err))
		return ""
	}
	c.last = res
	c.in.remember(res.ID, hash)
	if c.measuring {
		c.stored += res.StorageBytes
		c.full += full
	}
	return res.ID
}

// recover recovers id through svc as one measured recovery and checks the
// recovered parameters bit for bit against the hash recorded at save.
func (c *client) recover(svc core.SaveService, id, label string) {
	c.note("recover " + label)
	var rec *core.RecoveredModel
	err := c.timed(opRecover, "op.recover", func() (err error) {
		rec, err = svc.Recover(id, recoverOpts)
		return err
	})
	c.verify(label, id, err, func() string { return nn.StateDictOf(rec.Net).Hash() })
}

// verify is the oracle: a recovery fails unless it returned no error and
// the state it recovered hashes to what was recorded when id was saved.
func (c *client) verify(label, id string, err error, hash func() string) {
	if err == nil {
		if got, want := hash(), c.in.want(id); got != want {
			err = fmt.Errorf("recovered state hash %s, saved %s", got, want)
		}
	}
	if err != nil {
		c.fail(fmt.Errorf("recover %s: %w", label, err))
	}
}

// closers are the stop functions of what a set-up started, in start order.
type closers []func() error

// close runs them last first and returns the first error.
func (cs closers) close() error {
	var first error
	for i := len(cs) - 1; i >= 0; i-- {
		if err := cs[i](); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// perturb makes the next version of net: a seeded sparse edit of every
// trainable tensor, enough to change each trainable layer's hash.
func perturb(net nn.Module, rng *tensor.RNG) {
	for _, p := range nn.NamedParams(net) {
		if !p.Param.Trainable {
			continue
		}
		d := p.Param.Value.Data()
		step := len(d)/16 + 1
		for i := rng.Intn(step); i < len(d); i += step {
			d[i] += (rng.Float32() - 0.5) * 1e-3
		}
	}
}

func readCounters(cs []*obs.Counter) []int64 {
	out := make([]int64, len(cs))
	for i, c := range cs {
		out[i] = c.Value()
	}
	return out
}

// setUp builds one instance of w under a fresh directory and returns it
// with the wall time set-up took: model build, data generation, server
// start, chain roots, warm-up.
func setUp(w *workloadDef, cfg config, traced bool) (*instance, time.Duration, error) {
	dir, err := os.MkdirTemp(cfg.dir, w.name+"-")
	if err != nil {
		return nil, 0, err
	}
	e := &env{cfg: cfg, dir: dir}
	if traced {
		e.tracer = obs.NewTracer()
	}
	start := time.Now()
	in, err := w.setup(e)
	if err != nil {
		_ = os.RemoveAll(dir) // the set-up error is the one to report
		return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	took := time.Since(start)
	for _, c := range in.clients {
		if c.firstErr != nil {
			_ = tearDown(in) // the set-up error is the one to report
			return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, c.firstErr)
		}
	}
	return in, took, nil
}

// tearDown closes the instance and removes what it wrote.
func tearDown(in *instance) error {
	err := in.close()
	if rerr := os.RemoveAll(in.env.dir); err == nil {
		err = rerr
	}
	return err
}

// pass is what one measured phase produced.
type pass struct {
	clients   int
	lat       [2][]time.Duration
	attempted int
	failed    int
	stored    int64
	full      int64
	busy      time.Duration // Σ over clients of time inside measured ops
	wall      time.Duration
	alloc     uint64 // runtime.MemStats.TotalAlloc delta
	watch     [2][]int64
	counters  obs.Snapshot // registry delta over the phase
	firstErr  error
}

func (p *pass) ops() int { return len(p.lat[opSave]) + len(p.lat[opRecover]) }

// opsPerSecond is measured operations per second of the measured phase,
// with the clock stopped while the harness prepares versions and checks
// hashes: ops ÷ (time inside operations, averaged over the clients).
func (p *pass) opsPerSecond() float64 {
	if p.busy <= 0 {
		return 0
	}
	return float64(p.ops()) * float64(p.clients) / p.busy.Seconds()
}

// measure runs every client's rounds for cfg.seconds (or cfg.rounds) and
// gathers what they recorded.
func measure(in *instance, cfg config) (*pass, error) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	allocBefore := ms.TotalAlloc
	snapBefore := obs.Default().Snapshot()
	start := time.Now()

	errs := make([]error, len(in.clients))
	var wg sync.WaitGroup
	for i := 0; i < len(in.clients); i++ { // one goroutine per client
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			if c.tr != nil {
				c.tr.reset() // set-up went through the decorators too
			}
			c.measuring = true
			defer func() { c.measuring = false }()
			for r := 0; ; r++ {
				if cfg.rounds > 0 {
					if r >= cfg.rounds {
						return
					}
				} else if time.Since(start).Seconds() >= cfg.seconds {
					return
				}
				if err := in.round(c); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, in.clients[i])
	}
	wg.Wait()

	p := &pass{clients: len(in.clients), wall: time.Since(start)}
	p.counters = obs.Default().Snapshot().Delta(snapBefore)
	runtime.ReadMemStats(&ms)
	p.alloc = ms.TotalAlloc - allocBefore
	for i, c := range in.clients {
		if errs[i] != nil {
			return nil, fmt.Errorf("client %d: %w", i, errs[i])
		}
		for k := range c.lat {
			p.lat[k] = append(p.lat[k], c.lat[k]...)
			for _, d := range c.lat[k] {
				p.busy += d
			}
			if c.watch[k] != nil {
				if p.watch[k] == nil {
					p.watch[k] = make([]int64, len(watched))
				}
				for j, v := range c.watch[k] {
					p.watch[k][j] += v
				}
			}
		}
		p.attempted += c.attempted
		p.failed += c.failed
		p.stored += c.stored
		p.full += c.full
		if p.firstErr == nil {
			p.firstErr = c.firstErr
		}
	}
	if p.ops() == 0 {
		return nil, fmt.Errorf("no operation was measured")
	}
	return p, nil
}
