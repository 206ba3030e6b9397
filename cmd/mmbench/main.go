// Command mmbench regenerates the paper's evaluation tables and figures.
//
// Usage:
//
//	mmbench -exp fig7              # one experiment at default (fast) scale
//	mmbench -exp all -paper        # everything at paper scale (slow)
//	mmbench -list                  # list experiment identifiers
//
// Experiment identifiers follow the per-experiment index in DESIGN.md
// (tab1..tab3, fig2..fig15, abl-*). How fast the system itself runs is
// measured by bench/ (bash bench/run.sh), not here.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		list    = flag.Bool("list", false, "list experiment identifiers and exit")
		trace   = flag.String("trace", "", "write every save/recovery span of the run as a Chrome trace-event file (load in chrome://tracing or ui.perfetto.dev)")
		metrics = flag.String("metrics-out", "", "write the final metrics-registry snapshot to this file as JSON")
		rcache  = flag.Bool("recover-cache", false, "memoize recoveries in the measured U4 sweeps through a recovery cache")
		paper   = flag.Bool("paper", false, "run at paper scale (full dataset sizes, 5-run medians, DIST-20)")
		scale   = flag.Float64("scale", 0, "override dataset scale (1.0 = Table 1 sizes)")
		runs    = flag.Int("runs", 0, "override repetitions for medians")
		nodes   = flag.Int("nodes", 0, "override node count for distributed flows")
		u3      = flag.Int("u3", 0, "override U3 iterations per phase for distributed flows")
		archs   = flag.String("archs", "", "comma-separated architecture override (e.g. mobilenetv2,resnet152)")
		outdir  = flag.String("workdir", "", "directory for experiment scratch stores (default: system temp)")
		frate   = flag.Float64("fault-rate", 0, "per-operation fault probability injected into distributed-flow metadata connections (0 = healthy network)")
		fseed   = flag.Uint64("fault-seed", 1, "seed for the deterministic fault schedule (same seed = same faults)")
		shards  = flag.Int("shards", 0, "shard the distributed flows' metadata/file tier this many ways behind a consistent-hash ring (0 or 1 = single backend)")
		psize   = flag.Int("pool-size", 0, "pipelined connections per metadata shard (0 = default)")
	)
	applyLog := obs.LogFlags(flag.CommandLine)
	flag.Parse()
	applyLog()

	if *list {
		for _, id := range experiments.Order() {
			fmt.Println(id)
		}
		return
	}

	opts := experiments.Default()
	if *paper {
		opts = experiments.Paper()
	}
	if *scale > 0 {
		opts.Scale = *scale
	}
	if *runs > 0 {
		opts.Runs = *runs
	}
	if *nodes > 0 {
		opts.Nodes = *nodes
	}
	if *u3 > 0 {
		opts.U3PerPhase = *u3
	}
	if *archs != "" {
		opts.Archs = strings.Split(*archs, ",")
	}
	opts.WorkDir = *outdir
	opts.FaultRate = *frate
	opts.FaultSeed = *fseed
	opts.Shards = *shards
	opts.PoolSize = *psize
	opts.RecoverCache = *rcache
	if *trace != "" {
		opts.Tracer = obs.NewTracer()
	}

	reg := experiments.Registry()
	var ids []string
	if *exp == "all" {
		ids = experiments.Order()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			if _, ok := reg[id]; !ok {
				obs.Errorf("mmbench: unknown experiment %q (use -list)", id)
				os.Exit(2)
			}
			ids = append(ids, id)
		}
	}

	for _, id := range ids {
		if err := reg[id](os.Stdout, opts); err != nil {
			obs.Fatalf("mmbench: %s: %v", id, err)
		}
	}

	if opts.Tracer != nil {
		if err := writeFile(*trace, opts.Tracer.WriteTrace); err != nil {
			obs.Fatalf("mmbench: writing trace: %v", err)
		}
		obs.Infof("mmbench: trace written to %s", *trace)
	}
	if *metrics != "" {
		snap := obs.Default().Snapshot()
		if err := writeFile(*metrics, snap.WriteJSON); err != nil {
			obs.Fatalf("mmbench: writing metrics: %v", err)
		}
		obs.Infof("mmbench: metrics snapshot written to %s", *metrics)
	}
}

// writeFile creates path and streams write into it, surfacing the close
// error (the last chance a full disk has to be noticed).
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
