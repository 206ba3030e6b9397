package evalflow

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/core"
)

// UseCases returns the flow's use-case labels in execution order, without
// node duplication.
func (r *Result) UseCases() []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range r.Measurements {
		if !seen[m.UseCase] {
			seen[m.UseCase] = true
			out = append(out, m.UseCase)
		}
	}
	return out
}

// perUseCase collects the measurements of one use case across nodes.
func (r *Result) perUseCase(useCase string) []Measurement {
	var out []Measurement
	for _, m := range r.Measurements {
		if m.UseCase == useCase {
			out = append(out, m)
		}
	}
	return out
}

// recoveries returns the recovery timings of one use case across nodes.
func (r *Result) recoveries(useCase string) []core.RecoverTiming {
	var out []core.RecoverTiming
	for _, m := range r.perUseCase(useCase) {
		if m.Recovered {
			out = append(out, m.TTR)
		}
	}
	return out
}

// MedianTTS returns the median time-to-save of a use case across nodes.
func (r *Result) MedianTTS(useCase string) time.Duration {
	var ds []time.Duration
	for _, m := range r.perUseCase(useCase) {
		ds = append(ds, m.Save.Duration)
	}
	return median(ds)
}

// MedianTTR returns the median total time-to-recover of a use case across
// nodes. It returns zero when TTR was not measured.
func (r *Result) MedianTTR(useCase string) time.Duration {
	var ds []time.Duration
	for _, t := range r.recoveries(useCase) {
		ds = append(ds, t.Total())
	}
	return median(ds)
}

// MedianTTRBreakdown returns the per-bucket median recovery breakdown of a
// use case across nodes (the Figure-12 load/recover/check-env/verify
// split). Each bucket's median is taken independently, so the buckets may
// come from different nodes and need not sum to MedianTTR; they answer
// "where does a typical recovery of this use case spend its time".
func (r *Result) MedianTTRBreakdown(useCase string) core.RecoverTiming {
	return medianTiming(r.recoveries(useCase))
}

// MedianStorage returns the median per-model storage consumption of a use
// case across nodes. (The paper observes storage is constant across nodes
// and runs; the median guards against identifier-length noise.)
func (r *Result) MedianStorage(useCase string) int64 {
	var vals []int64
	for _, m := range r.perUseCase(useCase) {
		vals = append(vals, m.Save.StorageBytes)
	}
	return median(vals)
}

// NumModels returns the number of models the flow saved (10 for the
// standard flow; 102/202/402 for DIST-5/10/20).
func (r *Result) NumModels() int { return len(r.Measurements) }

// median returns the middle value of vs (the upper one of an even count),
// or zero for none. It sorts vs in place.
func median[T cmp.Ordered](vs []T) T {
	var zero T
	if len(vs) == 0 {
		return zero
	}
	slices.Sort(vs)
	return vs[len(vs)/2]
}

// medianTiming takes the median of every recovery bucket independently.
func medianTiming(ts []core.RecoverTiming) core.RecoverTiming {
	var load, rec, env, ver []time.Duration
	for _, t := range ts {
		load = append(load, t.Load)
		rec = append(rec, t.Recover)
		env = append(env, t.CheckEnv)
		ver = append(ver, t.Verify)
	}
	return core.RecoverTiming{Load: median(load), Recover: median(rec), CheckEnv: median(env), Verify: median(ver)}
}

// MedianOfRuns aggregates repeated executions of the same experiment the
// way the paper does ("we execute every experiment five times ... and take
// the median computation time"): per use case, the median TTS/TTR across
// runs. Storage is taken from the first run (constant across runs).
type MedianOfRuns struct {
	Runs []*Result
}

// TTS returns the median-of-runs median TTS for a use case.
func (m MedianOfRuns) TTS(useCase string) time.Duration {
	var ds []time.Duration
	for _, r := range m.Runs {
		ds = append(ds, r.MedianTTS(useCase))
	}
	return median(ds)
}

// TTR returns the median-of-runs median TTR for a use case.
func (m MedianOfRuns) TTR(useCase string) time.Duration {
	var ds []time.Duration
	for _, r := range m.Runs {
		ds = append(ds, r.MedianTTR(useCase))
	}
	return median(ds)
}

// TTRBreakdown returns the median-of-runs recovery breakdown for a use
// case, bucket by bucket.
func (m MedianOfRuns) TTRBreakdown(useCase string) core.RecoverTiming {
	var ts []core.RecoverTiming
	for _, r := range m.Runs {
		ts = append(ts, r.MedianTTRBreakdown(useCase))
	}
	return medianTiming(ts)
}

// CacheStats returns the first run's recovery-cache snapshot, or nil when
// the flow ran without a cache. (Counters are structural — fixed by flow
// shape and cache bound, not by timing — so one run represents all.)
func (m MedianOfRuns) CacheStats() *core.RecoveryCacheStats {
	if len(m.Runs) == 0 {
		return nil
	}
	return m.Runs[0].CacheStats
}

// Storage returns the per-model storage of a use case.
func (m MedianOfRuns) Storage(useCase string) int64 {
	if len(m.Runs) == 0 {
		return 0
	}
	return m.Runs[0].MedianStorage(useCase)
}

// UseCases returns the use-case labels of the underlying flow.
func (m MedianOfRuns) UseCases() []string {
	if len(m.Runs) == 0 {
		return nil
	}
	return m.Runs[0].UseCases()
}

// FlowDef is one row of the paper's Table 3.
type FlowDef struct {
	Name       string
	Nodes      int
	U3PerPhase int
	// Models is 2 + Nodes × 2 × U3PerPhase (U1 and U2 plus per-node U3s).
	Models int
}

// Table3 returns the evaluation flow definitions of the paper's Table 3.
func Table3() []FlowDef {
	mk := func(name string, nodes, u3 int) FlowDef {
		return FlowDef{Name: name, Nodes: nodes, U3PerPhase: u3, Models: 2 + nodes*2*u3}
	}
	return []FlowDef{
		mk("STANDARD", 1, 4),
		mk("DIST-5", 5, 10),
		mk("DIST-10", 10, 10),
		mk("DIST-20", 20, 10),
	}
}
