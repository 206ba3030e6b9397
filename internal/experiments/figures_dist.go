package experiments

import (
	"fmt"
	"io"

	"repro/internal/dataset"
	"repro/internal/evalflow"
	"repro/internal/faultnet"
	"repro/internal/models"
)

// faults returns the fault schedule of one distributed run: none on a
// healthy network, otherwise o.FaultRate on a seed that varies per run, so
// repeated runs see different (but replayable) schedules.
func (o Opts) faults(run int) *faultnet.Config {
	if o.FaultRate <= 0 {
		return nil
	}
	return &faultnet.Config{Seed: o.FaultSeed + uint64(run)*0x9e3779b9, Rate: o.FaultRate}
}

// distFlows sweeps the distributed flow of every approach — fully updated
// MobileNetV2 versions trained on CO-512, o.Nodes nodes — on in-process
// clusters standing in for the paper's dedicated MongoDB machine and shared
// file system, with one database connection pool per node. The paper takes
// its distributed medians over three runs.
func (o Opts) distFlows(measureTTR bool) ([]column, error) {
	return o.byApproach(min(o.Runs, 3), o.faults, func(ap string) evalflow.Config {
		cfg := o.flowConfig(ap, models.MobileNetV2Name, evalflow.FullyUpdated, dataset.CO512(o.Scale))
		cfg.Nodes = o.Nodes
		cfg.U3PerPhase = o.U3PerPhase
		cfg.MeasureTTR = measureTTR
		cfg.UseRecoveryCache = o.RecoverCache
		// Sequential nodes match the paper's contention-free per-node
		// timings (its single node machine runs one save at a time).
		cfg.SequentialNodes = true
		return cfg
	})
}

// Figure14 regenerates the DIST-N TTS comparison: median time-to-save per
// use-case iteration for fully updated MobileNetV2 versions trained on
// CO-512, aggregated across all nodes.
//
// Expected shape: per-use-case TTS is flat across iterations and matches
// the standard flow's numbers — BA ≈ PUA (fully updated versions save all
// parameters either way) and MPA higher because it stores the dataset.
func Figure14(w io.Writer, o Opts) error {
	header(w, fmt.Sprintf("Figure 14: median TTS on DIST-%d (MobileNetV2, fully updated, CO-512)", o.Nodes))
	cols, err := o.distFlows(false)
	if err != nil {
		return fmt.Errorf("fig14 %w", err)
	}
	if err := useCaseTable(w, cols, u2Omitted, ttsMS); err != nil {
		return err
	}
	return obsBreakdown(w, cols)
}

// Figure15 regenerates the DIST-N TTR comparison. Expected shape: BA flat;
// PUA and MPA staircases restarting after U2, with longer chains (ten U3
// iterations) reaching higher maxima than the standard flow.
func Figure15(w io.Writer, o Opts) error {
	header(w, fmt.Sprintf("Figure 15: median TTR on DIST-%d (MobileNetV2, fully updated, CO-512)", o.Nodes))
	cols, err := o.distFlows(true)
	if err != nil {
		return fmt.Errorf("fig15 %w", err)
	}
	if err := useCaseTable(w, cols, u2InPlace, ttrMS); err != nil {
		return err
	}
	// Per-bucket breakdown of the deepest recovery (the last U3 of phase
	// 2 has the longest chain): where BA pays in load, PUA and MPA pay in
	// recover (merging updates / replaying training). A blank line ends a
	// tabwriter column block, so each table aligns on its own.
	ucs := cols[0].runs.UseCases()
	deepest := ucs[len(ucs)-1]
	tw := newTab(w)
	fmt.Fprintf(tw, "\nTTR BREAKDOWN (%s)\tLOAD\tRECOVER\tVERIFY\n", deepest)
	for _, c := range cols {
		b := c.runs.TTRBreakdown(deepest)
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", c.name, ms(b.Load), ms(b.Recover), ms(b.Verify))
	}
	// Recovery-cache traffic for the U4 sweep: a hit costs O(1), because
	// it hands out the cache's own read-only state.
	if o.RecoverCache {
		fmt.Fprint(tw, "\nCACHE\tHITS\tMISSES\tPUTS\tEVICTIONS\tCORRUPT\tBYTES\n")
		for _, c := range cols {
			if s := c.runs.CacheStats(); s != nil {
				fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\n",
					c.name, s.Hits, s.Misses, s.Puts, s.Evictions, s.Corrupt, s.Bytes)
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	return obsBreakdown(w, cols)
}

// obsBreakdown prints what each approach's last run cost the layers under
// the flow, from the registry delta evalflow attaches to every Result:
// metadata-network traffic (including the retries a flaky link provokes),
// file-store reads, recovery-cache traffic, and hashing work. Where TTS/TTR say how long a flow took, this table
// says where the time could have gone.
func obsBreakdown(w io.Writer, cols []column) error {
	tw := newTab(w)
	fmt.Fprint(tw, "\nOBS\tDB OPS\tRETRIES\tDB OUT\tDB IN\tFILE READS\tCACHE HIT/MISS\tDIGESTS\n")
	for _, col := range cols {
		runs := col.runs.Runs
		if len(runs) == 0 || runs[len(runs)-1].Metrics == nil {
			continue
		}
		c := runs[len(runs)-1].Metrics.Counters
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%s\t%d\t%d/%d\t%d\n",
			col.name,
			c["docdb.client.ops"], c["docdb.client.retries"],
			mb(c["docdb.client.bytes_out"]), mb(c["docdb.client.bytes_in"]),
			c["filestore.reads"]+c["filestore.mmap_opens"],
			c["core.cache.hits"], c["core.cache.misses"],
			c["tensor.digest_ops"])
	}
	return tw.Flush()
}
