package main

import (
	"context"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/docdb"
	"repro/internal/filestore"
	"repro/internal/obs"
)

// Layers are timed from outside the program: every save and recovery
// reaches storage only through core.Stores.Meta and core.Stores.Files, so
// wrapping those two interfaces sees each layer call an operation makes
// without editing the code under test. A call becomes a span under the
// operation that caused it and a row in the client's ledger.

// opKind says which measured operation a layer call belongs to.
type opKind int

const (
	opSave opKind = iota
	opRecover
	// opOther is everything the harness does between measured operations
	// (catalog listings, pruning); it is timed but charged to neither.
	opOther
	numOpKinds
)

// callStat sums the calls one client made to one layer entry point.
type callStat struct {
	n     int64
	dur   time.Duration
	bytes int64
}

type statKey struct {
	kind opKind
	name string
}

// opTrace is one client's view of the trace: the operation it is inside
// and the ledger of layer calls made on its behalf. The recovery paths
// fetch from their own goroutines, so every field is guarded by mu.
type opTrace struct {
	mu    sync.Mutex
	root  context.Context // carries the shared tracer
	cur   context.Context // span context of the operation in flight
	kind  opKind
	stats map[statKey]*callStat
}

func newOpTrace(tr *obs.Tracer) *opTrace {
	root := obs.WithTracer(context.Background(), tr)
	return &opTrace{root: root, cur: root, kind: opOther, stats: make(map[statKey]*callStat)}
}

// reset empties the ledger.
func (t *opTrace) reset() {
	t.mu.Lock()
	t.stats = make(map[statKey]*callStat)
	t.mu.Unlock()
}

// begin opens the span of one measured operation; layer calls made until
// the returned func runs become its children.
func (t *opTrace) begin(kind opKind, name string) (end func()) {
	ctx, sp := obs.StartSpan(t.root, name)
	t.mu.Lock()
	t.cur, t.kind = ctx, kind
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		t.cur, t.kind = t.root, opOther
		t.mu.Unlock()
		sp.End()
	}
}

// call opens the span of one layer call. names lists the ledger rows the
// call is charged to (the entry point, and for documents also the entry
// point per collection).
func (t *opTrace) call(span string, names ...string) (done func(bytes int64)) {
	t.mu.Lock()
	ctx, kind := t.cur, t.kind
	t.mu.Unlock()
	_, sp := obs.StartSpan(ctx, span)
	start := time.Now()
	return func(bytes int64) {
		d := time.Since(start)
		sp.End()
		t.mu.Lock()
		for _, name := range names {
			k := statKey{kind, name}
			st := t.stats[k]
			if st == nil {
				st = new(callStat)
				t.stats[k] = st
			}
			st.n++
			st.dur += d
			st.bytes += bytes
		}
		t.mu.Unlock()
	}
}

// tracedMeta times every document operation of the store it wraps.
type tracedMeta struct {
	docdb.Store
	t *opTrace
}

func (m tracedMeta) doc(op, col string) func(int64) {
	return m.t.call("docdb."+op, "docdb", "docdb."+op, "docdb."+op+":"+col)
}

func (m tracedMeta) Insert(col string, doc docdb.Document) (string, error) {
	defer m.doc("insert", col)(0)
	return m.Store.Insert(col, doc)
}

func (m tracedMeta) Put(col, id string, doc docdb.Document) error {
	defer m.doc("put", col)(0)
	return m.Store.Put(col, id, doc)
}

func (m tracedMeta) Get(col, id string) (docdb.Document, error) {
	defer m.doc("get", col)(0)
	return m.Store.Get(col, id)
}

func (m tracedMeta) Delete(col, id string) error {
	defer m.doc("delete", col)(0)
	return m.Store.Delete(col, id)
}

func (m tracedMeta) Find(col string, eq docdb.Document) ([]docdb.Document, error) {
	defer m.doc("find", col)(0)
	return m.Store.Find(col, eq)
}

func (m tracedMeta) IDs(col string) ([]string, error) {
	defer m.doc("find", col)(0)
	return m.Store.IDs(col)
}

// tracedFiles times every blob operation of the provider it wraps.
type tracedFiles struct {
	filestore.Blobs
	t *opTrace
}

func (f tracedFiles) blob(op string) func(int64) {
	return f.t.call("filestore."+op, "filestore", "filestore."+op)
}

func (f tracedFiles) Save(r io.Reader) (string, int64, string, error) {
	done := f.blob("save")
	id, size, hash, err := f.Blobs.Save(r)
	done(size)
	return id, size, hash, err
}

func (f tracedFiles) SaveAs(id string, r io.Reader) (int64, string, error) {
	done := f.blob("saveas")
	size, hash, err := f.Blobs.SaveAs(id, r)
	done(size)
	return size, hash, err
}

func (f tracedFiles) SaveBytes(b []byte) (string, int64, string, error) {
	done := f.blob("save")
	id, size, hash, err := f.Blobs.SaveBytes(b)
	done(size)
	return id, size, hash, err
}

func (f tracedFiles) ReadAll(id string) ([]byte, error) {
	done := f.blob("readall")
	b, err := f.Blobs.ReadAll(id)
	done(int64(len(b)))
	return b, err
}

func (f tracedFiles) OpenMapped(id string) (*filestore.Mapping, error) {
	done := f.blob("openmapped")
	m, err := f.Blobs.OpenMapped(id)
	var n int64
	if err == nil {
		n = int64(len(m.Bytes()))
	}
	done(n)
	return m, err
}

// Open returns a streaming reader, so the span runs until the caller
// closes it: the time the blob was held open, decoding included.
func (f tracedFiles) Open(id string) (io.ReadCloser, error) {
	done := f.blob("open")
	rc, err := f.Blobs.Open(id)
	if err != nil {
		done(0)
		return nil, err
	}
	return &tracedReader{ReadCloser: rc, done: done}, nil
}

func (f tracedFiles) Delete(id string) error {
	defer f.blob("delete")(0)
	return f.Blobs.Delete(id)
}

type tracedReader struct {
	io.ReadCloser
	n    int64
	done func(int64)
}

func (r *tracedReader) Read(p []byte) (int, error) {
	n, err := r.ReadCloser.Read(p)
	r.n += int64(n)
	return n, err
}

func (r *tracedReader) Close() error {
	err := r.ReadCloser.Close()
	if r.done != nil {
		r.done(r.n)
		r.done = nil
	}
	return err
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its direct children cover. Children are merged as a union
// first: recovery fetches overlap, and subtracting their sum would take
// the same instant away twice.
func selfTimes(recs []obs.SpanRecord) map[int64]time.Duration {
	type iv struct{ a, b time.Duration }
	kids := make(map[int64][]iv)
	for _, r := range recs {
		if r.Parent != 0 {
			kids[r.Parent] = append(kids[r.Parent], iv{r.Start, r.Start + r.Dur})
		}
	}
	self := make(map[int64]time.Duration, len(recs))
	for _, r := range recs {
		ivs := kids[r.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		lo, hi := r.Start, r.Start+r.Dur
		var covered time.Duration
		end := lo
		for _, c := range ivs {
			a, b := max(c.a, end), min(c.b, hi)
			if b > a {
				covered += b - a
				end = b
			}
		}
		self[r.ID] = r.Dur - covered
	}
	return self
}
