package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/models"
	"repro/internal/nn"
)

// Figure10 regenerates the median time-to-save comparison across use cases
// and approaches, with U3 models trained on CO-512.
//
// Expected shape: BA TTS flat and proportional to parameters; PUA ≈ BA for
// fully updated versions, clearly faster for partially updated ones
// (−28.5% MobileNetV2 / −51.7% ResNet-152 in the paper); MPA dominated by
// the dataset archive — faster than BA only when the dataset is smaller
// than the model.
func Figure10(w io.Writer, o Opts) error {
	header(w, "Figure 10: median time-to-save (CO-512)")
	return o.panels(w, "fig10", dataset.CO512(o.Scale), false, func(cols []column) error {
		return useCaseTable(w, cols, u2Omitted, ttsMS)
	})
}

// Figure11 regenerates the median time-to-recover comparison. Expected
// shape: BA TTR flat across use cases; PUA and MPA staircases that grow
// with every U3 iteration and restart after U2 (the recursive recovery of
// Figure 6's derivation chains); MPA far above the others because it
// re-executes training.
func Figure11(w io.Writer, o Opts) error {
	header(w, "Figure 11: median time-to-recover (CO-512)")
	return o.panels(w, "fig11", dataset.CO512(o.Scale), true, func(cols []column) error {
		return useCaseTable(w, cols, u2InPlace, ttrMS)
	})
}

// Figure12 regenerates the baseline TTR breakdown per architecture for the
// U3-1-3 model: loading the model data, recovering the model from the data,
// and verifying the recovered parameters. The paper's recover step includes
// the framework constructor's weight initialization — where GoogLeNet's
// truncated-normal initializer shows up as a peak — although the loaded
// state dict overwrites all of it. Recovery here builds the architecture
// without initializing it, so that constructor is timed on its own, in a
// column that is not part of the total: it reproduces the paper's anomaly
// as a measurement of what a recovery no longer pays. The environment check
// adds a constant time regardless of architecture; like the paper, it is
// reported separately and excluded from the per-architecture comparison.
func Figure12(w io.Writer, o Opts) error {
	header(w, "Figure 12: baseline TTR breakdown at U3-1-3 (check-env reported separately)")
	tw := newTab(w)
	fmt.Fprintln(tw, "MODEL\tLOAD\tRECOVER\tVERIFY\tTOTAL (w/o check env)\tCHECK ENV\tFRAMEWORK INIT (not paid at recovery)")
	for _, arch := range evaluationArchs {
		err := o.withStores(func(stores core.Stores) error {
			ba := core.NewBaseline(stores)
			spec := models.Spec{Arch: arch, NumClasses: 1000}
			net, err := models.New(arch, 1000, 3)
			if err != nil {
				return err
			}
			// Build the U1 → U3-1-1 → U3-1-2 → U3-1-3 chain with BA saves. The
			// BA recovers independently of the chain, so cheap parameter
			// perturbations stand in for the (paper-pretrained) trainings.
			var lastID string
			for i := 0; i < 4; i++ {
				perturbClassifier(arch, net, float32(i)*1e-3)
				res, err := ba.Save(core.SaveInfo{Spec: spec, Net: net, BaseID: lastID, WithChecksums: true})
				if err != nil {
					return err
				}
				lastID = res.ID
			}
			rec, err := ba.Recover(lastID, core.RecoverOptions{CheckEnv: true, VerifyChecksums: true})
			if err != nil {
				return err
			}
			t0 := time.Now()
			if _, err := models.Instantiate(spec); err != nil {
				return err
			}
			initTime := time.Since(t0)
			t := rec.Timing
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
				arch, ms(t.Load), ms(t.Recover), ms(t.Verify), ms(t.Load+t.Recover+t.Verify), ms(t.CheckEnv), ms(initTime))
			return nil
		})
		if err != nil {
			return err
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "expected: load/recover/verify grow with parameters; GoogLeNet's framework init peaks (expensive constructor initialization) — the paper pays it inside recover, this recovery skips it")
	return nil
}

// perturbClassifier nudges the classifier weights so successive saves hold
// different models.
func perturbClassifier(arch string, net nn.Module, eps float32) {
	prefix := models.ClassifierPrefix(arch)
	for _, p := range nn.NamedParams(net) {
		if nn.LayerOf(p.Path) == prefix {
			d := p.Param.Value.Data()
			for i := range d {
				d[i] += eps
			}
		}
	}
}
