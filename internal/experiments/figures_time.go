package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/evalflow"
	"repro/internal/models"
	"repro/internal/nn"
)

func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f ms", float64(d.Microseconds())/1000)
}

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
	return timeFigure(w, o, false)
}

// Figure11 regenerates the median time-to-recover comparison. Expected
// shape: BA TTR flat across use cases; PUA and MPA staircases that grow
// with every U3 iteration and restart after U2 (the recursive recovery of
// Figure 6's derivation chains); MPA far above the others because it
// re-executes training.
func Figure11(w io.Writer, o Opts) error {
	header(w, "Figure 11: median time-to-recover (CO-512)")
	return timeFigure(w, o, true)
}

func timeFigure(w io.Writer, o Opts, recover bool) error {
	u3 := dataset.CO512(o.Scale)
	for _, arch := range o.archs(models.MobileNetV2Name, models.ResNet18Name) {
		for _, rel := range []evalflow.Relation{FullyUpdatedRel, PartiallyUpdatedRel} {
			fmt.Fprintf(w, "\n[%s, %s updated]\n", arch, rel)
			perApproach := map[string]evalflow.MedianOfRuns{}
			for _, ap := range approaches {
				cfg := o.flowConfig(ap, arch, rel, u3)
				cfg.MeasureTTR = recover
				agg, err := runFlowMedian(o, cfg)
				if err != nil {
					return fmt.Errorf("fig10/11 %s/%s/%s: %w", arch, rel, ap, err)
				}
				perApproach[ap] = agg
			}
			tw := newTab(w)
			fmt.Fprint(tw, "USE CASE")
			for _, ap := range approaches {
				fmt.Fprintf(tw, "\t%s", ap)
			}
			fmt.Fprintln(tw)
			for _, uc := range perApproach[approaches[0]].UseCases() {
				if uc == "U2" && !recover {
					continue // the paper excludes U2 from TTS plots
				}
				fmt.Fprintf(tw, "%s", uc)
				for _, ap := range approaches {
					var v time.Duration
					if recover {
						v = perApproach[ap].TTR(uc)
					} else {
						v = perApproach[ap].TTS(uc)
					}
					fmt.Fprintf(tw, "\t%s", ms(v))
				}
				fmt.Fprintln(tw)
			}
			if err := tw.Flush(); err != nil {
				return err
			}
		}
	}
	return nil
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
		stores, cleanup, err := newLocalStores(o.WorkDir)
		if err != nil {
			return err
		}
		ba := core.NewBaseline(stores)
		spec := models.Spec{Arch: arch, NumClasses: 1000}
		net, err := models.New(arch, 1000, 3)
		if err != nil {
			cleanup()
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
				cleanup()
				return err
			}
			lastID = res.ID
		}
		rec, err := ba.Recover(lastID, core.RecoverOptions{CheckEnv: true, VerifyChecksums: true})
		if err != nil {
			cleanup()
			return err
		}
		t0 := time.Now()
		_, err = models.Instantiate(spec)
		initTime := time.Since(t0)
		if err != nil {
			cleanup()
			return err
		}
		t := rec.Timing
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n",
			arch, ms(t.Load), ms(t.Recover), ms(t.Verify), ms(t.Load+t.Recover+t.Verify), ms(t.CheckEnv), ms(initTime))
		cleanup()
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
