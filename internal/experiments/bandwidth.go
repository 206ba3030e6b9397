package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/evalflow"
	"repro/internal/models"
)

// AblationBandwidth quantifies the introduction's motivation that "even for
// a single model, it is beneficial to save storage in cases when a transfer
// with limited available bandwidth is required": the file store is
// throttled to a constrained link and a partially updated ResNet-18 version
// is saved with the baseline (full snapshot crosses the link) and the
// parameter update approach (only the classifier layers cross the link).
func AblationBandwidth(w io.Writer, o Opts) error {
	header(w, "Ablation: save over a bandwidth-limited link (partial ResNet-18)")
	const linkBytesPerSecond = 200 << 20 // 200 MB/s constrained link
	arch := models.ResNet18Name
	spec := models.Spec{Arch: arch, NumClasses: 1000}

	tw := newTab(w)
	fmt.Fprintln(tw, "APPROACH\tBYTES OVER LINK\tTTS (throttled)")
	for _, approach := range []string{core.BaselineApproach, core.ParamUpdateApproach} {
		err := o.withStores(func(stores core.Stores) error {
			svc, err := evalflow.NewService(approach, stores)
			if err != nil {
				return err
			}
			net, err := models.New(arch, 1000, 19)
			if err != nil {
				return err
			}
			// The initial save runs unthrottled (it happens once, centrally).
			base, err := svc.Save(core.SaveInfo{Spec: spec, Net: net})
			if err != nil {
				return err
			}
			// The recurring node-side save crosses the constrained link.
			models.FreezeForPartialUpdate(arch, net)
			perturbClassifier(arch, net, 1e-3)
			stores.Files.SetBandwidth(linkBytesPerSecond)
			res, err := svc.Save(core.SaveInfo{Spec: spec, Net: net, BaseID: base.ID})
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\n", approach, mb(res.FileBytes), ms(res.Duration))
			return nil
		})
		if err != nil {
			return err
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "expected: the parameter update crosses the link ~20× faster than the full snapshot")
	return nil
}
