package experiments

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/docdb"
	"repro/internal/evalflow"
	"repro/internal/faultnet"
	"repro/internal/filestore"
	"repro/internal/models"
)

// AblationFaults measures what a flaky metadata network costs the
// distributed flow. The same scaled-down DIST flow runs fault-free and
// under injected fault rates (connection drops, torn frames, delays on a
// deterministic schedule); the docdb clients absorb the faults by
// poisoning broken connections, reconnecting, and retrying idempotent
// operations, so the flow completes exactly, and only time-to-save/recover
// degrades. The INJECTED column counts the hard faults that actually fired,
// proving the link was genuinely hostile.
func AblationFaults(w io.Writer, o Opts) error {
	header(w, "Ablation: DIST flow over a flaky metadata network")
	rates := []float64{0, 0.02, 0.05}
	if o.FaultRate > 0 {
		rates = []float64{0, o.FaultRate}
	}
	cfg := o.flowConfig(core.BaselineApproach, models.MobileNetV2Name, evalflow.FullyUpdated, dataset.CO512(o.Scale))
	cfg.Nodes = min(o.Nodes, 3) // the degradation trend needs few nodes; keep the sweep fast
	cfg.U3PerPhase = 2
	cfg.SequentialNodes = true

	tw := newTab(w)
	fmt.Fprintln(tw, "FAULT RATE\tINJECTED FAULTS\tFLOW TIME\tMEDIAN TTS (U3)\tMEDIAN TTR (U3)")
	for _, rate := range rates {
		var stats faultnet.Stats
		start := time.Now()
		agg, err := o.sweep(cfg, 1, func(int) *faultnet.Config {
			if rate == 0 {
				return nil
			}
			return &faultnet.Config{Seed: o.FaultSeed + 1, Rate: rate, Stats: &stats}
		})
		elapsed := time.Since(start)
		if err != nil {
			return fmt.Errorf("abl-faults rate=%.2f: %w", rate, err)
		}
		fmt.Fprintf(tw, "%.2f\t%d\t%s\t%s\t%s\n",
			rate, stats.Total(), ms(elapsed), ms(agg.TTS("U3-1-1")), ms(agg.TTR("U3-1-1")))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	return ablationCrashDuringSave(w, o)
}

// ablationCrashDuringSave is the crash-during-save phase: a checksummed
// baseline save onto real on-disk stores is killed at every transaction
// crash point in turn, then core.RecoverOrphans runs as it would at
// mmserver startup. The table shows, per kill point, whether the save was
// rolled back (root document never landed) or kept (commit already
// happened) and what the GC pass reclaimed — the all-or-nothing behavior
// the crashtest suite asserts, measured here on the disk engines with
// directory fsyncs in the path.
func ablationCrashDuringSave(w io.Writer, o Opts) error {
	header(w, "Ablation: crash during save (write-ahead staging records + orphan GC)")
	// save runs the save on fresh on-disk stores whose crash hook is crash,
	// and hands the stores and the save's error to after.
	save := func(crash core.CrashFn, after func(core.Stores, error) error) error {
		return o.inWorkDir(func(dir string) error {
			meta, err := docdb.OpenDisk(filepath.Join(dir, "meta"))
			if err != nil {
				return err
			}
			defer meta.Close()
			files, err := filestore.Open(filepath.Join(dir, "files"))
			if err != nil {
				return err
			}
			net, err := models.New(models.TinyCNNName, 4, 1)
			if err != nil {
				return err
			}
			stores := core.Stores{Meta: meta, Files: files, Crash: crash}
			_, err = core.NewBaseline(stores).Save(core.SaveInfo{
				Spec: models.Spec{Arch: models.TinyCNNName, NumClasses: 4}, Net: net, WithChecksums: true,
			})
			return after(stores, err)
		})
	}

	// The writes of one wave reach their crash points in no fixed order, so
	// the points are named on a crash-free save and then killed by name.
	var mu sync.Mutex
	var points []string
	err := save(func(p string) error {
		mu.Lock()
		points = append(points, p)
		mu.Unlock()
		return nil
	}, func(_ core.Stores, err error) error { return err })
	if err != nil {
		return fmt.Errorf("abl-faults crash sweep: crash-free save failed: %w", err)
	}
	slices.Sort(points)

	tw := newTab(w)
	fmt.Fprintln(tw, "CRASH POINT\tOUTCOME\tRECLAIMED")
	for _, point := range slices.Compact(points) {
		crash := func(p string) error {
			if p == point {
				return fmt.Errorf("%w at %q", core.ErrInjectedCrash, p)
			}
			return nil
		}
		err := save(crash, func(stores core.Stores, err error) error {
			if !errors.Is(err, core.ErrInjectedCrash) {
				return fmt.Errorf("save at %q returned %v, want injected crash", point, err)
			}
			rep, err := core.RecoverOrphans(stores)
			if err != nil {
				return fmt.Errorf("recovery at %q: %w", point, err)
			}
			outcome := "rolled back"
			if rep.Completed > 0 {
				outcome = "kept (committed)"
			}
			fmt.Fprintf(tw, "%s\t%s\t%d blob(s) / %d doc(s), %d B\n",
				point, outcome, rep.BlobsReclaimed, rep.DocsReclaimed, rep.BytesReclaimed)
			return nil
		})
		if err != nil {
			return fmt.Errorf("abl-faults crash sweep: %w", err)
		}
	}
	return tw.Flush()
}
