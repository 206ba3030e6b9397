// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 4). Each experiment prints the rows or series the
// paper reports; cmd/mmbench exposes them on the command line. Performance
// of the system itself is measured by bench/, not here.
//
// Absolute numbers differ from the paper (its substrate is PyTorch on Xeon
// servers with A100 GPUs; ours is a pure-Go framework), but the comparisons
// the paper makes — which approach wins, by roughly what factor, and where
// the crossovers fall — are expected to hold. EXPERIMENTS.md records
// paper-vs-measured values.
package experiments

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"repro/internal/dataset"
	"repro/internal/evalflow"
	"repro/internal/models"
	"repro/internal/obs"
)

// Opts control experiment scale. The zero value is not usable; start from
// Default or Paper.
type Opts struct {
	// Scale scales dataset sizes (1.0 = the paper's Table 1 sizes).
	Scale float64
	// Runs is the number of repetitions medians are taken over (the paper
	// uses 5 for standard flows, 3 for distributed flows).
	Runs int
	// Nodes is the node count for the distributed-flow experiments.
	Nodes int
	// U3PerPhase is the number of U3 iterations per phase in distributed
	// flows (the paper uses 10).
	U3PerPhase int
	// Archs optionally overrides the architecture set of multi-model
	// experiments (Table 2 names).
	Archs []string
	// WorkDir is where experiment stores and files are created. Empty uses
	// a temporary directory per experiment.
	WorkDir string
	// TrainEpochs and TrainBatches configure the simulated training runs
	// (the paper uses 2 epochs × 2 batches for provenance recovery).
	TrainEpochs  int
	TrainBatches int
	// BatchSize and Resolution configure training input.
	BatchSize  int
	Resolution int
	// FaultRate, when > 0, runs the distributed flows over a flaky
	// metadata network: every connection misbehaves (drops, torn frames,
	// delays) with this per-operation probability, on a deterministic
	// schedule, and the clients retry through it. TTS/TTR under degraded
	// links then becomes a measurable ablation.
	FaultRate float64
	// FaultSeed seeds the deterministic fault schedule.
	FaultSeed uint64
	// Shards, when > 1, runs the distributed flows against a scaled-out
	// metadata/file tier: that many in-process database servers and file
	// directories behind a consistent-hash ring (internal/shard) instead
	// of one of each.
	Shards int
	// PoolSize is the pipelined-connection pool size per metadata shard
	// (0 = docdb.DefaultPoolSize).
	PoolSize int
	// RecoverCache equips the measured recovery sweeps (U4) with a
	// recovery cache, so each chain prefix is recovered once per sweep.
	RecoverCache bool
	// Tracer, when set, receives a span per save/recovery an experiment
	// performs (mmbench -trace writes the collected spans as a Chrome
	// trace-event file).
	Tracer *obs.Tracer
}

// ctx returns the context experiment flows run under: the background
// context, carrying o.Tracer when one is configured.
func (o Opts) ctx() context.Context {
	if o.Tracer == nil {
		return context.Background()
	}
	return obs.WithTracer(context.Background(), o.Tracer)
}

// Default returns fast settings suitable for benchmarks and CI: small
// dataset scale and the two architectures the comparison figures focus on.
func Default() Opts {
	return Opts{
		// 0.25 keeps the storage crossover visible at reduced scale: CF-512
		// shrinks to ~23.6 MB, which still sits between the MobileNetV2
		// (14 MB) and ResNet-18 (46.8 MB) snapshot sizes.
		Scale:        0.25,
		Runs:         1,
		Nodes:        4,
		U3PerPhase:   4,
		Archs:        []string{models.MobileNetV2Name, models.ResNet18Name},
		TrainEpochs:  2,
		TrainBatches: 2,
		BatchSize:    2,
		Resolution:   32,
	}
}

// Paper returns settings matching the paper's setup as closely as this
// substrate allows: full Table 1 dataset sizes, 5-run medians, DIST-20.
func Paper() Opts {
	return Opts{
		Scale:        1.0,
		Runs:         5,
		Nodes:        20,
		U3PerPhase:   10,
		Archs:        []string{models.MobileNetV2Name, models.ResNet152Name},
		TrainEpochs:  2,
		TrainBatches: 2,
		BatchSize:    4,
		Resolution:   32,
	}
}

func (o Opts) archs(def ...string) []string {
	if len(o.Archs) > 0 {
		return o.Archs
	}
	return def
}

// flowConfig assembles an evalflow config from the options.
func (o Opts) flowConfig(approach, arch string, rel evalflow.Relation, u3 dataset.Spec) evalflow.Config {
	cfg := evalflow.DefaultConfig(approach, arch, rel, u3)
	cfg.U2Data = dataset.MINetVal(o.Scale * 0.2) // mINet_val is only pre-scaled further for speed
	cfg.Train.Epochs = o.TrainEpochs
	cfg.Train.BatchesPerEpoch = o.TrainBatches
	cfg.Loader.BatchSize = o.BatchSize
	cfg.Loader.OutH, cfg.Loader.OutW = o.Resolution, o.Resolution
	cfg.WithChecksums = true
	return cfg
}

// Func is an experiment entry point.
type Func func(w io.Writer, o Opts) error

// Registry maps experiment identifiers (the DESIGN.md per-experiment index)
// to their implementations.
func Registry() map[string]Func {
	return map[string]Func{
		"tab1":  Table1,
		"tab2":  Table2,
		"tab3":  Table3,
		"fig2":  Figure2,
		"fig4":  Figure4,
		"fig7":  Figure7,
		"fig8":  Figure8,
		"fig9":  Figure9,
		"fig10": Figure10,
		"fig11": Figure11,
		"fig12": Figure12,
		"fig13": Figure13,
		"fig14": Figure14,
		"fig15": Figure15,

		"abl-merkle":     AblationMerkle,
		"abl-checksums":  AblationChecksums,
		"abl-datasetref": AblationDatasetRef,
		"abl-bandwidth":  AblationBandwidth,
		"abl-adaptive":   AblationAdaptive,
		"abl-faults":     AblationFaults,
	}
}

// Order returns the experiment identifiers in presentation order.
func Order() []string {
	return []string{
		"tab1", "tab2", "fig2", "fig4",
		"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
		"tab3", "fig14", "fig15",
		"abl-merkle", "abl-checksums", "abl-datasetref", "abl-adaptive", "abl-bandwidth", "abl-faults",
	}
}

// header prints an experiment banner.
func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}

// newTab creates a tab writer for aligned table output.
func newTab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

// mb renders bytes as megabytes the way the paper reports sizes.
func mb(b int64) string {
	return fmt.Sprintf("%.1f MB", float64(b)/1e6)
}

// ms renders a duration in milliseconds.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f ms", float64(d.Microseconds())/1000)
}

var evaluationArchs = models.EvaluationNames()
