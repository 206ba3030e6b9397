package main

import (
	"fmt"
	"time"
)

// setupRepeats is how often a run sets its workload up: set-up time is
// reported as the median, and the last instance is the one measured.
const setupRepeats = 3

// Share of -seconds a traced run gives each of its three parts.
const (
	traceBaseShare   = 0.3 // untraced pass, the base of obs.trace_overhead_pct
	traceTracedShare = 0.3 // traced pass
	traceProbeShare  = 0.4 // probes
)

// runUntraced is the -trace 0 run: tracing off, every end-to-end metric.
func runUntraced(w *workloadDef, cfg config) (runRecord, error) {
	var (
		in     *instance
		setups []time.Duration
	)
	repeats := setupRepeats
	if cfg.small {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		if in != nil {
			if err := tearDown(in); err != nil {
				return runRecord{}, err
			}
		}
		var (
			took time.Duration
			err  error
		)
		if in, took, err = setUp(w, cfg, false); err != nil {
			return runRecord{}, err
		}
		setups = append(setups, took)
	}
	if cfg.afterSetup != nil {
		cfg.afterSetup(in.env.dir)
	}
	p, err := measure(in, cfg)
	if terr := tearDown(in); err == nil {
		err = terr
	}
	if err != nil {
		return runRecord{}, fmt.Errorf("%s: %w", w.name, err)
	}
	return record(w, cfg, false, p, endToEnd(p, setups)), nil
}

// runTraced is the -trace 1 run: an untraced pass for the base, the same
// workload again behind the decorators, then the probes on its model.
func runTraced(w *workloadDef, cfg config, traceOut string) (runRecord, error) {
	part := func(share float64) config {
		c := cfg
		c.seconds = cfg.seconds * share
		return c
	}
	in, _, err := setUp(w, cfg, false)
	if err != nil {
		return runRecord{}, err
	}
	base, err := measure(in, part(traceBaseShare))
	if terr := tearDown(in); err == nil {
		err = terr
	}
	if err != nil {
		return runRecord{}, fmt.Errorf("%s: untraced pass: %w", w.name, err)
	}

	if in, _, err = setUp(w, cfg, true); err != nil {
		return runRecord{}, err
	}
	traced, err := measure(in, part(traceTracedShare))
	var metrics map[string]metric
	if err == nil {
		var probes map[string]metric
		if probes, err = runProbes(in, time.Duration(cfg.seconds*traceProbeShare*float64(time.Second))); err == nil {
			metrics = inSitu(in, traced, base, probes)
			for name, m := range probes {
				metrics[name] = m
			}
		}
	}
	if err == nil && traceOut != "" {
		err = writeTrace(in.env.tracer, traceOut)
	}
	if terr := tearDown(in); err == nil {
		err = terr
	}
	if err != nil {
		return runRecord{}, fmt.Errorf("%s: traced pass: %w", w.name, err)
	}
	return record(w, cfg, true, traced, metrics), nil
}

func record(w *workloadDef, cfg config, trace bool, p *pass, metrics map[string]metric) runRecord {
	r := runRecord{
		Workload: w.name,
		Seed:     cfg.seed,
		Trace:    trace,
		Samples:  map[string]int{"save": len(p.lat[opSave]), "recover": len(p.lat[opRecover])},
		result:   result{Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed, Metrics: metrics},
	}
	if p.firstErr != nil {
		r.FirstErr = p.firstErr.Error()
	}
	return r
}
