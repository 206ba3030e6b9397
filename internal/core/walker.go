package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/docdb"
	"repro/internal/environment"
	"repro/internal/filestore"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/train"
)

// The one recovery. A stored model is a chain of typed links: follow base
// references down to a full snapshot (or to an ancestor the cache holds),
// then apply each link on the way back up — decode the snapshot, merge a
// parameter update's changed layers (Section 3.2), re-execute a provenance
// link's training (Section 3.3). Every service recovers this way, whatever
// policy it saves with and whatever policies wrote the chain.

// linkKind is how one stored model is represented relative to its base,
// named as the catalog reports it.
type linkKind string

const (
	snapshotLink   linkKind = "snapshot"   // model code and all parameters; ends a walk
	updateLink     linkKind = "update"     // the parameters of the layers that changed
	provenanceLink linkKind = "provenance" // the training run that produced it
	unknownLink    linkKind = "unknown"    // none of these: a damaged document
)

// kind classifies a root document by what it references. Nothing else
// tells the kinds apart — not the approach string, not the saving service.
func (d modelDoc) kind() linkKind {
	switch {
	case d.CodeFileRef != "":
		return snapshotLink
	case d.ParamsFileRef != "":
		return updateLink
	case d.ServiceDocID != "":
		return provenanceLink
	}
	return unknownLink
}

// lineage reads the root documents from a model toward its root, a chain
// read at a time: one Chain call returns as much of the lineage as its
// store holds, and a read is issued again only where an answer stopped
// short. The recovery walk and the catalog both read lineage through it.
type lineage struct {
	meta  docdb.Store
	stop  string // Chain's stop field: "" reads on past snapshots
	seen  map[string]bool
	ahead []docdb.Document // read by the last Chain call, the next read's first
}

// toSnapshot is the stop field of a lineage that ends at the first
// snapshot, as a recovery's walk ends: modelDoc's CodeFileRef.
const toSnapshot = "code_file_ref"

// newLineage returns a lineage reader that stops after a model whose stop
// field is set; "" reads on to the root.
func newLineage(meta docdb.Store, stop string) *lineage {
	return &lineage{meta: meta, stop: stop, seen: make(map[string]bool)}
}

// read returns the root document of id, which is the first model read or
// the base of the one read before it ("base_id", modelDoc's BaseID).
// Reading an id twice is a base-reference cycle. ctx is honoured before
// every Chain call.
func (l *lineage) read(ctx context.Context, id string) (modelDoc, error) {
	if l.seen[id] {
		return modelDoc{}, fmt.Errorf("core: base-reference cycle at %s", id)
	}
	l.seen[id] = true
	if len(l.ahead) == 0 {
		if err := ctx.Err(); err != nil {
			return modelDoc{}, err
		}
		var err error
		l.ahead, err = l.meta.Chain(ColModels, id, "base_id", l.stop)
		if err == nil && len(l.ahead) == 0 {
			err = docdb.ErrNotFound // an answer starts with id
		}
		if errors.Is(err, docdb.ErrNotFound) {
			return modelDoc{}, fmt.Errorf("%w: %s", ErrModelNotFound, id)
		}
		if err != nil {
			return modelDoc{}, fmt.Errorf("core: loading %s/%s: %w", ColModels, id, err)
		}
	}
	var doc modelDoc
	err := mapToDoc(l.ahead[0], &doc)
	l.ahead = l.ahead[1:]
	if err != nil {
		return modelDoc{}, fmt.Errorf("core: model %s: %w", id, err)
	}
	return doc, nil
}

// link is one walked model: its root document and the fetches it needs,
// each launched the moment a document named it.
type link struct {
	id     string
	doc    modelDoc
	env    *fetch[environment.Info]   // requested model; replayed links under CheckEnv
	params *fetch[*filestore.Mapping] // snapshot, update
	code   *fetch[[]byte]             // snapshot
	svc    *fetch[train.ServiceDoc]   // provenance
	data   *fetch[*dataset.Dataset]   // provenance, once svc names it
	opt    *fetch[[]byte]             // provenance with optimizer state, likewise
}

// walk is one cold recovery in progress.
type walk struct {
	s      *service
	opts   RecoverOptions
	timing RecoverTiming
	chain  []link          // requested model first
	cached *CachedRecovery // the cached ancestor that ended the walk, if one did
	// pending is every fetch launched, so that none outlives the recovery.
	pending []interface{ settled() error }

	// The accumulator: a state dict until a provenance link needs a net to
	// train, that net from then on.
	spec  models.Spec
	state *nn.StateDict
	net   nn.Module
}

// launch starts fn on its own goroutine as one of w's fetches.
func launch[T any](w *walk, fn func() (T, error)) *fetch[T] {
	f := goFetch(fn)
	w.pending = append(w.pending, f)
	return f
}

// walk recovers id from the stores: probe the cache for it, load its chain,
// apply the chain root to leaf, verify once, fill the cache. ctx is
// honoured before every chain read, before the fetches are collected and
// between links; whenever it returns, no goroutine it started is running.
func (s *service) walk(ctx context.Context, id string, opts RecoverOptions) (*RecoveredState, error) {
	cache := s.cache
	var timing RecoverTiming
	if cache != nil {
		var cr CachedRecovery
		var hit bool
		_ = phase(ctx, "cache.get", &timing.Load, func(*obs.Span) error {
			cr, hit = cache.Get(id)
			return nil
		})
		if hit {
			return stateFromCache(ctx, id, cr, opts, timing)
		}
	}
	w := &walk{s: s, opts: opts, timing: timing}
	defer func() {
		for _, f := range w.pending {
			_ = f.settled() // drained, not abandoned; a failure was reported by load or is moot
		}
	}()
	err := phase(ctx, "fetch", &w.timing.Load, func(sp *obs.Span) error {
		defer func() { sp.Arg("links", fmt.Sprint(len(w.chain))) }()
		return w.load(ctx, id)
	})
	if err != nil {
		return nil, err
	}

	// Verify once: at the requested model or, when that was saved without a
	// checksum, at its nearest ancestor that has one. Each link's state
	// feeds the next, so damage below the checked link still fails it.
	verifyAt := -1
	if opts.VerifyChecksums {
		for i := range w.chain {
			if w.chain[i].doc.StateHash != "" {
				verifyAt = i
				break
			}
		}
		if verifyAt < 0 && w.cached != nil && !w.cached.checksumOK() {
			return nil, fmt.Errorf("core: checksum mismatch for a cached ancestor of model %s", id)
		}
	}
	if w.cached != nil {
		w.spec, w.state = w.cached.Spec, w.cached.State
	}
	for i := len(w.chain) - 1; i >= 0; i-- {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := w.apply(ctx, &w.chain[i]); err != nil {
			return nil, err
		}
		if i == verifyAt && i > 0 {
			if err := w.verify(ctx, &w.chain[i], w.stateDict()); err != nil {
				return nil, err
			}
		}
	}

	leaf := &w.chain[0]
	env, _ := leaf.env.wait() // collected by load
	// A replayed link's environment was checked when it was applied.
	if opts.CheckEnv && leaf.doc.kind() != provenanceLink {
		if err := w.checkEnv(ctx, env); err != nil {
			return nil, err
		}
	}
	// Seal before verifying when the state is about to be cached: one
	// digest pass serves the checksum and the cache's insert hash.
	state := w.stateDict()
	if cache != nil {
		_ = phase(ctx, "seal", &w.timing.Recover, func(*obs.Span) error { state.Seal(); return nil })
	}
	if verifyAt == 0 {
		if err := w.verify(ctx, leaf, state); err != nil {
			return nil, err
		}
	}
	rs := &RecoveredState{
		ID: id, Spec: w.spec, State: state, BaseID: leaf.doc.BaseID, Env: env,
		TrainablePrefixes: leaf.doc.TrainablePrefixes, StateHash: leaf.doc.StateHash,
		Links: len(w.chain),
	}
	switch {
	case cache != nil:
		// The sealed state goes in zero-copy — a replay net's own dict too,
		// which is why that net is dropped — and the caller gets the same
		// read-only dict the cache holds, as every later hit does.
		_ = phase(ctx, "cache.put", &w.timing.Recover, func(*obs.Span) error {
			cache.Put(id, CachedRecovery{
				Spec: rs.Spec, BaseID: rs.BaseID, State: state, Env: env,
				TrainablePrefixes: rs.TrainablePrefixes, StateHash: rs.StateHash,
			})
			return nil
		})
	case w.net != nil:
		restoreTrainable(w.net, rs.TrainablePrefixes)
		rs.net = w.net
	}
	rs.Timing = w.timing
	return rs, nil
}

// load walks from id toward the root, then waits for what the walk
// launched: the time a recovery spends on documents and blobs. The root
// documents come from a lineage reader that ends at the snapshot ending
// the walk; a cached ancestor ends it before its document is read. The
// requested model's environment document is read beside the first chain
// read, under id, where a save puts it.
func (w *walk) load(ctx context.Context, id string) error {
	meta, files := w.s.stores.Meta, w.s.stores.Files
	if err := ctx.Err(); err != nil {
		return err
	}
	// Reported only once the root document names id; drained either way.
	early := goFetch(func() (environment.Info, error) {
		return loadDoc[environment.Info](meta, ColEnvironments, id)
	})
	defer early.settled()
	lin := newLineage(meta, toSnapshot)
	for cur := id; ; {
		if w.s.cache != nil && cur != id {
			if cr, ok := w.s.cache.Get(cur); ok {
				w.cached = &cr
				break
			}
		}
		doc, err := lin.read(ctx, cur)
		if err != nil {
			return err
		}
		l := link{id: cur, doc: doc}
		kind := doc.kind()
		switch {
		case cur == id && doc.EnvDocID == id:
			l.env = early
			w.pending = append(w.pending, early)
		case cur == id || kind == provenanceLink && w.opts.CheckEnv:
			l.env = launch(w, func() (environment.Info, error) {
				return loadDoc[environment.Info](meta, ColEnvironments, doc.EnvDocID)
			})
		}
		switch kind {
		case snapshotLink:
			l.code = launch(w, func() ([]byte, error) {
				b, err := files.ReadAll(doc.CodeFileRef)
				return b, wrapErr(err, "core: loading model code")
			})
			fallthrough
		case updateLink:
			l.params = launch(w, func() (*filestore.Mapping, error) {
				m, err := files.OpenMapped(doc.ParamsFileRef)
				return m, wrapErr(err, "core: loading parameters "+doc.ParamsFileRef)
			})
		case provenanceLink:
			l.svc = launch(w, func() (train.ServiceDoc, error) {
				return loadDoc[train.ServiceDoc](meta, ColServices, doc.ServiceDocID)
			})
		default:
			return fmt.Errorf("core: model %s is neither a snapshot, a parameter update nor a provenance record", cur)
		}
		w.chain = append(w.chain, l)
		if kind == snapshotLink {
			break
		}
		if doc.BaseID == "" {
			return fmt.Errorf("core: model %s is derived but has no base reference", cur)
		}
		cur = doc.BaseID
	}

	if err := ctx.Err(); err != nil {
		return err
	}
	// The service documents were read while the walk went on; each names
	// a dataset and perhaps an optimizer state. Links trained on the same
	// dataset, as consecutive fine-tuning steps usually are, share one load.
	datasets := make(map[string]*fetch[*dataset.Dataset])
	for i := range w.chain {
		l := &w.chain[i]
		if l.svc == nil {
			continue
		}
		svcDoc, err := l.svc.wait()
		if err != nil {
			return err
		}
		if l.data = datasets[svcDoc.DatasetRef]; l.data == nil {
			l.data = launch(w, func() (*dataset.Dataset, error) { return w.s.loadDataset(svcDoc.DatasetRef) })
			datasets[svcDoc.DatasetRef] = l.data
		}
		if ref := svcDoc.Wrappers["optimizer"].StateFileRef; ref != "" {
			l.opt = launch(w, func() ([]byte, error) {
				b, err := files.ReadAll(ref)
				return b, wrapErr(err, "core: loading optimizer state")
			})
		}
	}
	for _, f := range w.pending {
		if err := f.settled(); err != nil {
			return err
		}
	}
	return nil
}

// wrapErr prefixes a non-nil error with what failed.
func wrapErr(err error, what string) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", what, err)
}

// apply takes the accumulator from l's base to l. Everything l needs was
// collected by load, so the waits return at once and without error.
func (w *walk) apply(ctx context.Context, l *link) error {
	if l.doc.kind() != provenanceLink {
		return phase(ctx, "decode", &w.timing.Recover, func(*obs.Span) (err error) {
			params, _ := l.params.wait()
			sd, err := nn.ReadStateDictMapped(params.Bytes(), params)
			if err != nil {
				return fmt.Errorf("core: reading parameters of %s: %w", l.id, err)
			}
			switch {
			case l.code != nil:
				code, _ := l.code.wait()
				w.state = sd
				w.spec, err = models.ParseSpec(code)
			case w.net != nil:
				err = applyUpdateToNet(w.net, sd)
			default:
				// Merge shares tensors with the mappings and with a cached
				// ancestor's state; every one of those sources is immutable.
				w.state = nn.Merge(w.state, sd)
			}
			return err
		})
	}
	if w.opts.CheckEnv {
		env, _ := l.env.wait()
		if err := w.checkEnv(ctx, env); err != nil {
			return err
		}
	}
	return phase(ctx, "train.replay", &w.timing.Recover, func(sp *obs.Span) (err error) {
		sp.Arg("model", l.id)
		if w.net == nil {
			if w.net, err = instantiate(w.spec, w.state, l.id); err != nil {
				return err
			}
			w.state = nil
		}
		restoreTrainable(w.net, l.doc.TrainablePrefixes)
		svcDoc, _ := l.svc.wait()
		data, _ := l.data.wait()
		var optState []byte
		if l.opt != nil {
			optState, _ = l.opt.wait()
		}
		svc, err := train.Restore(svcDoc, data, optState)
		if err != nil {
			return err
		}
		if _, err := svc.Train(w.net); err != nil {
			return fmt.Errorf("core: reproducing training for %s: %w", l.id, err)
		}
		return nil
	})
}

// stateDict returns the accumulated state.
func (w *walk) stateDict() *nn.StateDict {
	if w.net != nil {
		return nn.StateDictOf(w.net)
	}
	return w.state
}

func (w *walk) checkEnv(ctx context.Context, env environment.Info) error {
	return phase(ctx, "env.check", &w.timing.CheckEnv, func(*obs.Span) error { return environment.Check(env) })
}

// verify hashes the accumulated state against the checksum l was saved
// with. It is the only place a recovered state meets a StateHash.
func (w *walk) verify(ctx context.Context, l *link, state *nn.StateDict) error {
	return phase(ctx, "hash.verify", &w.timing.Verify, func(*obs.Span) error {
		switch {
		case state.Hash() == l.doc.StateHash:
			return nil
		case l.doc.kind() == provenanceLink:
			return fmt.Errorf("core: reproduced training for %s did not match the saved model (non-deterministic training?)", l.id)
		}
		return fmt.Errorf("core: checksum mismatch for model %s", l.id)
	})
}

// applyUpdateToNet copies the update's tensors into the matching state
// entries of net, leaving all other state untouched.
func applyUpdateToNet(net nn.Module, update *nn.StateDict) error {
	model := nn.StateDictOf(net)
	for _, e := range update.Entries() {
		dst, ok := model.Get(e.Key)
		if !ok {
			return fmt.Errorf("core: update contains unknown tensor %q", e.Key)
		}
		if !dst.SameShape(e.Tensor) {
			return fmt.Errorf("core: update shape mismatch for %q", e.Key)
		}
		copy(dst.Data(), e.Tensor.Data())
	}
	return nil
}
