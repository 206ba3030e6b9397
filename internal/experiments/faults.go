package experiments

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sync/atomic"
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
// operations — retried inserts are deduped server-side — so the flow
// completes exactly, and only time-to-save/recover degrades. The INJECTED
// column counts the hard faults that actually fired, proving the link was
// genuinely hostile.
func AblationFaults(w io.Writer, o Opts) error {
	header(w, "Ablation: DIST flow over a flaky metadata network")
	rates := []float64{0, 0.02, 0.05}
	if o.FaultRate > 0 {
		rates = []float64{0, o.FaultRate}
	}
	nodes := o.Nodes
	if nodes > 3 {
		nodes = 3 // the degradation trend needs few nodes; keep the sweep fast
	}

	tw := newTab(w)
	fmt.Fprintln(tw, "FAULT RATE\tINJECTED FAULTS\tFLOW TIME\tMEDIAN TTS (U3)\tMEDIAN TTR (U3)")
	for _, rate := range rates {
		tmp, err := mkWorkDir(o.WorkDir)
		if err != nil {
			return err
		}
		var stats faultnet.Stats
		var provider evalflow.StoreProvider
		var cleanup func()
		if rate > 0 {
			provider, cleanup, err = evalflow.FaultyDistributedProvider(tmp.path, faultnet.Config{
				Seed:  o.FaultSeed + 1,
				Rate:  rate,
				Stats: &stats,
			})
		} else {
			provider, cleanup, err = evalflow.DistributedProvider(tmp.path)
		}
		if err != nil {
			tmp.cleanup()
			return err
		}
		cfg := o.flowConfig(core.BaselineApproach, models.MobileNetV2Name, evalflow.FullyUpdated, dataset.CO512(o.Scale))
		cfg.Nodes = nodes
		cfg.U3PerPhase = 2
		cfg.MeasureTTR = true
		cfg.SequentialNodes = true
		start := time.Now()
		res, err := evalflow.RunCtx(o.ctx(), provider, cfg)
		elapsed := time.Since(start)
		cleanup()
		tmp.cleanup()
		if err != nil {
			return fmt.Errorf("abl-faults rate=%.2f: %w", rate, err)
		}
		fmt.Fprintf(tw, "%.2f\t%d\t%s\t%s\t%s\n",
			rate, stats.Total(), ms(elapsed), ms(res.MedianTTS("U3-1-1")), ms(res.MedianTTR("U3-1-1")))
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
	tw := newTab(w)
	fmt.Fprintln(tw, "CRASH POINT\tOUTCOME\tRECLAIMED")
	for k := 1; ; k++ {
		tmp, err := mkWorkDir(o.WorkDir)
		if err != nil {
			return err
		}
		meta, err := docdb.OpenDisk(filepath.Join(tmp.path, "meta"))
		if err != nil {
			tmp.cleanup()
			return err
		}
		files, err := filestore.Open(filepath.Join(tmp.path, "files"))
		if err != nil {
			tmp.cleanup()
			return err
		}
		var point string
		var n atomic.Int64
		stores := core.Stores{Meta: meta, Files: files, Crash: func(p string) error {
			if n.Add(1) == int64(k) {
				point = p
				return fmt.Errorf("%w at %q", core.ErrInjectedCrash, p)
			}
			return nil
		}}
		net, err := models.New(models.TinyCNNName, 4, 1)
		if err != nil {
			tmp.cleanup()
			return err
		}
		_, serr := core.NewBaseline(stores).Save(core.SaveInfo{
			Spec: models.Spec{Arch: models.TinyCNNName, NumClasses: 4}, Net: net, WithChecksums: true,
		})
		if point == "" {
			// The save ran out of crash points and completed: sweep done.
			tmp.cleanup()
			if serr != nil {
				return fmt.Errorf("abl-faults crash sweep: crash-free save failed: %w", serr)
			}
			break
		}
		if !errors.Is(serr, core.ErrInjectedCrash) {
			tmp.cleanup()
			return fmt.Errorf("abl-faults crash sweep: save at %q returned %v, want injected crash", point, serr)
		}
		rep, err := core.RecoverOrphans(stores)
		tmp.cleanup()
		if err != nil {
			return fmt.Errorf("abl-faults crash sweep: recovery at %q: %w", point, err)
		}
		outcome := "rolled back"
		if rep.Completed > 0 {
			outcome = "kept (committed)"
		}
		fmt.Fprintf(tw, "%s\t%s\t%d blob(s) / %d doc(s), %d B\n",
			point, outcome, rep.BlobsReclaimed, rep.DocsReclaimed, rep.BytesReclaimed)
	}
	return tw.Flush()
}
