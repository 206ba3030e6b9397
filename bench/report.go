package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/filestore"
	"repro/internal/obs"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload prints as its last line: the
// four keys of the driver's contract and nothing else.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the file -out writes: every run of a set, with the
// environment it ran in.
type report struct {
	Env  environment `json:"env"`
	Runs []runRecord `json:"runs"`
}

type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	// Samples is the number of measured saves and recovers behind the
	// latency percentiles.
	Samples  map[string]int `json:"samples"`
	FirstErr string         `json:"first_error,omitempty"`
	result
}

// environment is recorded with every output file: numbers from two
// machines, two Go versions or two flush policies are not comparable.
type environment struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Fsync      string  `json:"fsync"`
	Mmap       bool    `json:"mmap"`
	Seconds    float64 `json:"seconds"`
}

func currentEnvironment(seconds float64) environment {
	env := environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Fsync:      "default: filestore and DiskStore fsync every write",
		Mmap:       filestore.MmapEnabled(),
		Seconds:    seconds,
	}
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		env.Commit = c
	} else if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the middle of xs (the mean of the middle two when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the smallest sample with at least p of the samples
// at or below it.
func percentile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func medianDuration(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// endToEnd turns an untraced pass into the end-to-end metrics.
func endToEnd(p *pass, setups []time.Duration) map[string]metric {
	setupS := make([]float64, len(setups))
	for i, d := range setups {
		setupS[i] = d.Seconds()
	}
	return map[string]metric{
		"setup_s":         {median(setupS), "s"},
		"save_p50_ms":     {ms(medianDuration(p.lat[opSave])), "ms"},
		"save_p75_ms":     {ms(percentile(p.lat[opSave], 0.75)), "ms"},
		"recover_p50_ms":  {ms(medianDuration(p.lat[opRecover])), "ms"},
		"recover_p75_ms":  {ms(percentile(p.lat[opRecover], 0.75)), "ms"},
		"ops_per_s":       {p.opsPerSecond(), "op/s"},
		"storage_ratio":   {float64(p.stored) / float64(p.full), "ratio"},
		"alloc_mb_per_op": {float64(p.alloc) / 1e6 / float64(p.ops()), "MB/op"},
	}
}

// ledger merges the clients' call ledgers of one traced pass.
func ledger(in *instance) map[statKey]callStat {
	out := make(map[statKey]callStat)
	for _, t := range in.env.traces {
		t.mu.Lock()
		for k, st := range t.stats {
			sum := out[k]
			sum.n += st.n
			sum.dur += st.dur
			sum.bytes += st.bytes
			out[k] = sum
		}
		t.mu.Unlock()
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// inSitu turns a traced pass into the per-layer numbers taken where the
// work happened: decorator ledger, span self times, registry counts.
// base is the untraced pass of the same run, for the tracing overhead.
func inSitu(in *instance, traced, base *pass, probes map[string]metric) map[string]metric {
	led := ledger(in)
	saves, recovers := float64(len(traced.lat[opSave])), float64(len(traced.lat[opRecover]))
	ops := saves + recovers
	at := func(kind opKind, name string) callStat { return led[statKey{kind, name}] }
	// both sums a ledger row over saves and recovers.
	both := func(name string) callStat {
		a, b := at(opSave, name), at(opRecover, name)
		return callStat{a.n + b.n, a.dur + b.dur, a.bytes + b.bytes}
	}
	perCall := func(st callStat) float64 { return ratio(us(st.dur), float64(st.n)) }

	// Self time of the operation spans: what core and the layers below it
	// that have no decorator (nn, tensor, merkle, train) did themselves.
	recs := in.env.tracer.Records()
	self := selfTimes(recs)
	var selfBy, durBy [numOpKinds]time.Duration
	for _, r := range recs {
		switch r.Name {
		case "op.save":
			selfBy[opSave] += self[r.ID]
			durBy[opSave] += r.Dur
		case "op.recover":
			selfBy[opRecover] += self[r.ID]
			durBy[opRecover] += r.Dur
		}
	}
	coreSelf := selfBy[opSave] + selfBy[opRecover]
	opTime := durBy[opSave] + durBy[opRecover]

	staging := at(opSave, "docdb.put:txn_staging")
	stagingDel := at(opSave, "docdb.delete:txn_staging")
	saveas := both("filestore.saveas")
	var readBytes int64
	for _, name := range []string{"filestore.readall", "filestore.openmapped", "filestore.open"} {
		readBytes += at(opRecover, name).bytes
	}
	count := func(name string) float64 { return float64(traced.counters.Counters[name]) }
	watchedPer := func(kind opKind, i int, n float64) float64 {
		if traced.watch[kind] == nil {
			return 0
		}
		return ratio(float64(traced.watch[kind][i]), n)
	}
	hits, misses := count("core.cache.hits"), count("core.cache.misses")

	return map[string]metric{
		"core.save_self_ms":             {ratio(ms(selfBy[opSave]), saves), "ms"},
		"core.recover_self_ms":          {ratio(ms(selfBy[opRecover]), recovers), "ms"},
		"docdb.ms_per_save":             {ratio(ms(at(opSave, "docdb").dur), saves), "ms"},
		"docdb.ms_per_recover":          {ratio(ms(at(opRecover, "docdb").dur), recovers), "ms"},
		"docdb.ops_per_save":            {ratio(float64(at(opSave, "docdb").n), saves), "count"},
		"docdb.ops_per_recover":         {ratio(float64(at(opRecover, "docdb").n), recovers), "count"},
		"docdb.put_us":                  {perCall(both("docdb.put")), "us"},
		"docdb.get_us":                  {perCall(both("docdb.get")), "us"},
		"docdb.delete_us":               {perCall(both("docdb.delete")), "us"},
		"docdb.find_us":                 {perCall(at(opOther, "docdb.find")), "us"},
		"core.txn.staging_ms_per_save":  {ratio(ms(staging.dur+stagingDel.dur), saves), "ms"},
		"core.txn.commit_put_us":        {perCall(at(opSave, "docdb.put:models")), "us"},
		"filestore.ms_per_save":         {ratio(ms(at(opSave, "filestore").dur), saves), "ms"},
		"filestore.ms_per_recover":      {ratio(ms(at(opRecover, "filestore").dur), recovers), "ms"},
		"filestore.calls_per_save":      {ratio(float64(at(opSave, "filestore").n), saves), "count"},
		"filestore.calls_per_recover":   {ratio(float64(at(opRecover, "filestore").n), recovers), "count"},
		"filestore.write_mb_per_save":   {ratio(float64(at(opSave, "filestore").bytes)/1e6, saves), "MB"},
		"filestore.read_mb_per_recover": {ratio(float64(readBytes)/1e6, recovers), "MB"},
		"filestore.saveas_mb_s":         {ratio(float64(saveas.bytes)/1e6, saveas.dur.Seconds()), "MB/s"},
		"filestore.openmapped_us":       {perCall(both("filestore.openmapped")), "us"},
		"attrib.core_self_pct":          {100 * ratio(float64(coreSelf), float64(opTime)), "%"},
		"attrib.probe_gap_pct":          {100 * ratio(float64(coreSelf)-explained(traced, probes), float64(opTime)), "%"},
		"obs.trace_overhead_pct":        {100 * (ratio(base.opsPerSecond(), traced.opsPerSecond()) - 1), "%"},

		"tensor.digest_ops_per_save":       {watchedPer(opSave, 0, saves), "count"},
		"filestore.mmap_opens_per_recover": {watchedPer(opRecover, 1, recovers), "count"},
		"filestore.reads_per_recover":      {watchedPer(opRecover, 2, recovers), "count"},
		"docdb.client.bytes_out_per_op":    {ratio(count("docdb.client.bytes_out"), ops), "B"},
		"docdb.client.bytes_in_per_op":     {ratio(count("docdb.client.bytes_in"), ops), "B"},
		"docdb.client.retries":             {count("docdb.client.retries"), "count"},
		"docdb.server.ops_per_op":          {ratio(count("docdb.server.ops"), ops), "count"},
		"docdb.server.dedup_hits":          {count("docdb.server.dedup_hits"), "count"},
		"faultnet.delays_per_op":           {ratio(count("faultnet.delays"), ops), "count"},
		"core.cache.hit_ratio":             {ratio(hits, hits+misses), "ratio"},
		"core.cache.evictions":             {count("core.cache.evictions"), "count"},
		"core.cache.coalesced":             {count("core.cache.coalesced"), "count"},
		"core.cache.cow_hits":              {count("core.cache.cow_hits"), "count"},
		"core.txn.commits":                 {count("core.txn.commits"), "count"},
		"core.txn.rollbacks":               {count("core.txn.rollbacks"), "count"},
		"diag.failed_ops_ratio":            {ratio(float64(traced.failed), float64(traced.attempted)), "ratio"},
	}
}

// explained is the core self time the probes account for: each probe's
// time on this workload's model times how often an operation of this
// workload does that step. What is left over is the reported remainder
// (attrib.probe_gap_pct), not an error to hide.
func explained(traced *pass, probes map[string]metric) float64 {
	p := func(name string) float64 { // probe time in ns
		m := probes[name]
		switch m.Unit {
		case "ms":
			return m.Value * 1e6
		case "us":
			return m.Value * 1e3
		}
		return 0
	}
	saves, recovers := float64(len(traced.lat[opSave])), float64(len(traced.lat[opRecover]))
	// Every recovery decodes a mapped state, hashes it for verification,
	// builds the architecture and loads the state into it.
	perRecover := p("nn.decode_mapped_ms") + p("nn.seal_ms") + p("models.instantiate_ms") + p("nn.load_into_ms")
	// Serialization and digesting run inside the file store's write
	// span, so a save's own time is hashing and diffing layer hashes.
	perSave := p("nn.layer_hashes_ms") + 2*p("merkle.build_us") + p("merkle.diff_us") + p("nn.subset_ms")
	return saves*perSave + recovers*perRecover
}

// writeTrace writes the spans of a traced instance as a Chrome
// trace-event file.
func writeTrace(tr *obs.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = tr.WriteTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// lastLine prints a run's result as the single JSON line the contract
// asks for.
func lastLine(r result) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}
