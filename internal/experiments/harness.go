package experiments

import (
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/docdb"
	"repro/internal/evalflow"
	"repro/internal/faultnet"
	"repro/internal/filestore"
	"repro/internal/models"
)

// The harness every figure shares: scratch stores, repeated flows, and the
// paper's use case × column table.

var approaches = []string{core.BaselineApproach, core.ParamUpdateApproach, core.ProvenanceApproach}

// inWorkDir runs fn in a fresh scratch directory — under o.WorkDir, or
// under the system temp directory when that is empty — and removes the
// directory and its contents after.
func (o Opts) inWorkDir(fn func(dir string) error) error {
	var dir string
	var err error
	if o.WorkDir == "" {
		dir, err = os.MkdirTemp("", "mmlib-exp-*")
	} else if err = os.MkdirAll(o.WorkDir, 0o755); err == nil {
		dir, err = os.MkdirTemp(o.WorkDir, "exp-*")
	}
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	return fn(dir)
}

// withStores runs fn on fresh local stores: an in-memory metadata store
// and a file store in a fresh scratch directory.
func (o Opts) withStores(fn func(core.Stores) error) error {
	return o.inWorkDir(func(dir string) error {
		files, err := filestore.Open(dir)
		if err != nil {
			return err
		}
		return fn(core.Stores{Meta: docdb.NewMemStore(), Files: files})
	})
}

// sweep runs the flow cfg runs times (at least once), each run on fresh
// stores, and aggregates the runs like the paper. With cluster nil the
// stores are local; otherwise each run starts an in-process cluster of
// o.Shards document servers and file directories whose metadata links
// follow the fault schedule cluster(run) returns (nil: a healthy network).
func (o Opts) sweep(cfg evalflow.Config, runs int, cluster func(run int) *faultnet.Config) (evalflow.MedianOfRuns, error) {
	var agg evalflow.MedianOfRuns
	flow := func(p evalflow.StoreProvider) error {
		res, err := evalflow.Run(o.ctx(), p, cfg)
		if err == nil {
			agg.Runs = append(agg.Runs, res)
		}
		return err
	}
	for run := 0; run < max(runs, 1); run++ {
		var err error
		if cluster == nil {
			err = o.withStores(func(s core.Stores) error { return flow(evalflow.LocalProvider(s)) })
		} else {
			err = o.inWorkDir(func(dir string) error {
				p, stop, err := evalflow.ShardedProvider(dir, o.Shards, o.PoolSize, cluster(run))
				if err != nil {
					return err
				}
				defer stop()
				return flow(p)
			})
		}
		if err != nil {
			return agg, err
		}
	}
	return agg, nil
}

// column is one column of a use-case table: its heading and the runs its
// cells are read from.
type column struct {
	name string
	runs evalflow.MedianOfRuns
}

// byApproach sweeps the flow cfg(approach) for each of the paper's three
// approaches, one column each.
func (o Opts) byApproach(runs int, cluster func(run int) *faultnet.Config, cfg func(approach string) evalflow.Config) ([]column, error) {
	cols := make([]column, len(approaches))
	for i, ap := range approaches {
		agg, err := o.sweep(cfg(ap), runs, cluster)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ap, err)
		}
		cols[i] = column{ap, agg}
	}
	return cols, nil
}

// panels sweeps the standard flow of every approach — U3 models trained on
// u3 — on each architecture × relation panel of Figures 7, 10 and 11, and
// prints each panel with print.
func (o Opts) panels(w io.Writer, fig string, u3 dataset.Spec, measureTTR bool, print func([]column) error) error {
	for _, arch := range o.archs(models.MobileNetV2Name, models.ResNet18Name) {
		for _, rel := range []evalflow.Relation{evalflow.FullyUpdated, evalflow.PartiallyUpdated} {
			fmt.Fprintf(w, "\n[%s, %s updated]\n", arch, rel)
			cols, err := o.byApproach(o.Runs, nil, func(ap string) evalflow.Config {
				cfg := o.flowConfig(ap, arch, rel, u3)
				cfg.MeasureTTR = measureTTR
				return cfg
			})
			if err != nil {
				return fmt.Errorf("%s %s/%s/%w", fig, arch, rel, err)
			}
			if err := print(cols); err != nil {
				return err
			}
		}
	}
	return nil
}

// u2Row places U2 in a use-case table. The paper leaves U2 out of its
// comparison plots: the MPA's much larger U2 dataset distorts the axis.
type u2Row int

const (
	u2Omitted u2Row = iota // left out, as in the paper's plots
	u2InPlace              // where the flow ran it
	u2Last                 // after the plotted rows, marked as excluded
)

// useCaseTable prints the paper's use case × column table: one row per use
// case of the first column's flow, one cell(runs, use case) per column.
func useCaseTable(w io.Writer, cols []column, u2 u2Row, cell func(evalflow.MedianOfRuns, string) string) error {
	tw := newTab(w)
	fmt.Fprint(tw, "USE CASE")
	for _, c := range cols {
		fmt.Fprintf(tw, "\t%s", c.name)
	}
	fmt.Fprintln(tw)
	row := func(label, uc string) {
		fmt.Fprint(tw, label)
		for _, c := range cols {
			fmt.Fprintf(tw, "\t%s", cell(c.runs, uc))
		}
		fmt.Fprintln(tw)
	}
	for _, uc := range cols[0].runs.UseCases() {
		if uc != "U2" || u2 == u2InPlace {
			row(uc, uc)
		}
	}
	if u2 == u2Last {
		row("U2 (excluded from paper plots)", "U2")
	}
	return tw.Flush()
}

// Cells of a use-case table.
func storageMB(r evalflow.MedianOfRuns, uc string) string { return mb(r.Storage(uc)) }
func ttsMS(r evalflow.MedianOfRuns, uc string) string     { return ms(r.TTS(uc)) }
func ttrMS(r evalflow.MedianOfRuns, uc string) string     { return ms(r.TTR(uc)) }
