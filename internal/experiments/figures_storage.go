package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/evalflow"
	"repro/internal/models"
	"repro/internal/nn"
)

// Figure7 regenerates the storage-consumption comparison across use cases
// and approaches for fully and partially updated model versions trained on
// CF-512 (the paper's panels use MobileNetV2 and ResNet-152; the default
// options substitute ResNet-18 for speed, keeping the model-vs-dataset
// crossover visible).
//
// Expected shape: BA storage flat and proportional to parameters; PUA ≈ BA
// for fully updated versions but far smaller for partially updated ones
// (−63.7% MobileNetV2, −95.6% ResNet-152 in the paper); MPA storage ≈
// dataset size regardless of architecture, beating BA only when the
// dataset is smaller than the model.
func Figure7(w io.Writer, o Opts) error {
	header(w, "Figure 7: storage consumption per use case (CF-512)")
	return o.panels(w, "fig7", dataset.CF512(o.Scale), false, func(cols []column) error {
		if err := useCaseTable(w, cols, u2Last, storageMB); err != nil {
			return err
		}
		// Headline reductions vs BA on the steady-state U3-1-2 model.
		ba := cols[0].runs.Storage("U3-1-2")
		for _, c := range cols[1:] {
			v := c.runs.Storage("U3-1-2")
			fmt.Fprintf(w, "%s vs baseline on U3 models: %+.1f%%\n", c.name, 100*float64(v-ba)/float64(ba))
		}
		return nil
	})
}

// Figure8 regenerates the baseline storage consumption and parameter count
// for every architecture: storage grows proportionally with parameters.
func Figure8(w io.Writer, o Opts) error {
	header(w, "Figure 8: baseline storage vs parameters")
	return o.withStores(func(stores core.Stores) error {
		ba := core.NewBaseline(stores)
		tw := newTab(w)
		fmt.Fprintln(tw, "MODEL\t#PARAMS\tBA STORAGE")
		for _, arch := range evaluationArchs {
			net, err := models.New(arch, 1000, 7)
			if err != nil {
				return err
			}
			res, err := ba.Save(core.SaveInfo{Spec: models.Spec{Arch: arch, NumClasses: 1000}, Net: net})
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%s\t%d\t%s\n", arch, nn.NumParams(net), mb(res.StorageBytes))
		}
		return tw.Flush()
	})
}

// Figure9 regenerates the MPA storage comparison across datasets: the
// storage consumption of provenance saves is dominated by the training
// dataset and nearly independent of the architecture, so MobileNetV2 and
// the large ResNet show almost identical per-use-case storage, shifted only
// by the CF-512 / CO-512 size difference.
func Figure9(w io.Writer, o Opts) error {
	header(w, "Figure 9: MPA storage across datasets")
	for _, arch := range o.archs(models.MobileNetV2Name, models.ResNet18Name) {
		fmt.Fprintf(w, "\n[%s]\n", arch)
		var cols []column
		for _, spec := range []dataset.Spec{dataset.CF512(o.Scale), dataset.CO512(o.Scale)} {
			cfg := o.flowConfig(core.ProvenanceApproach, arch, evalflow.FullyUpdated, spec)
			cfg.MeasureTTR = false
			agg, err := o.sweep(cfg, o.Runs, nil)
			if err != nil {
				return fmt.Errorf("fig9 %s/%s: %w", arch, spec.Name, err)
			}
			cols = append(cols, column{spec.Name, agg})
		}
		if err := useCaseTable(w, cols, u2Omitted, storageMB); err != nil {
			return err
		}
	}
	fmt.Fprintln(w, "expected: per-use-case storage tracks the dataset size, not the architecture")
	return nil
}
