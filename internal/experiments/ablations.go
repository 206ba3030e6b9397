package experiments

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/evalflow"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/train"
)

// Ablation benchmarks for the design choices DESIGN.md calls out.

// AblationMerkle compares the PUA's Merkle-tree layer diff against the
// naive pairwise hash comparison when saving a partially updated model.
// The tree prunes unchanged subtrees, so its comparison count is
// logarithmic in the layer count instead of linear; the wall-clock delta is
// small (hashing dominates) but the comparison counts match Figure 4.
func AblationMerkle(w io.Writer, o Opts) error {
	header(w, "Ablation: Merkle vs naive layer diff (PUA save)")
	arch := models.ResNet18Name
	spec := models.Spec{Arch: arch, NumClasses: 1000}
	tw := newTab(w)
	fmt.Fprintln(tw, "DIFF\tSAVE TIME (derived, partial)\tUPDATE SIZE")
	for _, useMerkle := range []bool{true, false} {
		err := o.withStores(func(stores core.Stores) error {
			pua := core.NewParamUpdate(stores)
			pua.UseMerkle = useMerkle
			net, err := models.New(arch, 1000, 9)
			if err != nil {
				return err
			}
			base, err := pua.Save(core.SaveInfo{Spec: spec, Net: net})
			if err != nil {
				return err
			}
			models.FreezeForPartialUpdate(arch, net)
			perturbClassifier(arch, net, 1e-3)
			res, err := pua.Save(core.SaveInfo{Spec: spec, Net: net, BaseID: base.ID})
			if err != nil {
				return err
			}
			name := "naive"
			if useMerkle {
				name = "merkle"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\n", name, ms(res.Duration), mb(res.FileBytes))
			return nil
		})
		if err != nil {
			return err
		}
	}
	return tw.Flush()
}

// AblationChecksums measures the cost of the optional recovery-verification
// checksums: hashing all parameters at save time and re-hashing at recover
// time.
func AblationChecksums(w io.Writer, o Opts) error {
	header(w, "Ablation: checksums on vs off (BA, ResNet-18)")
	arch := models.ResNet18Name
	tw := newTab(w)
	fmt.Fprintln(tw, "CHECKSUMS\tTTS\tTTR\tVERIFY SHARE")
	for _, withChecksums := range []bool{false, true} {
		err := o.withStores(func(stores core.Stores) error {
			ba := core.NewBaseline(stores)
			net, err := models.New(arch, 1000, 13)
			if err != nil {
				return err
			}
			res, err := ba.Save(core.SaveInfo{Spec: models.Spec{Arch: arch, NumClasses: 1000}, Net: net, WithChecksums: withChecksums})
			if err != nil {
				return err
			}
			rec, err := ba.Recover(res.ID, core.RecoverOptions{VerifyChecksums: withChecksums})
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%v\t%s\t%s\t%s\n", withChecksums, ms(res.Duration), ms(rec.Timing.Total()), ms(rec.Timing.Verify))
			return nil
		})
		if err != nil {
			return err
		}
	}
	return tw.Flush()
}

// AblationDatasetRef compares the MPA's dataset-by-copy mode (archive the
// dataset into the file store) against the dataset-by-reference mode of
// Section 3.3, where an external system manages the dataset and the
// provenance stores only a reference. By reference, MPA storage collapses
// to the training metadata.
func AblationDatasetRef(w io.Writer, o Opts) error {
	header(w, "Ablation: MPA dataset by copy vs by reference")
	ds, err := dataset.Generate(dataset.CO512(o.Scale))
	if err != nil {
		return err
	}
	spec := models.Spec{Arch: models.MobileNetV2Name, NumClasses: 1000}
	cfg := o.flowConfig(core.ProvenanceApproach, spec.Arch, evalflow.FullyUpdated, ds.Spec)
	cfg.Opt = train.SGDConfig{LR: 0.01, Momentum: 0.9}
	tw := newTab(w)
	fmt.Fprintln(tw, "MODE\tSTORAGE (derived save)\tTTS")
	for _, byRef := range []bool{false, true} {
		mode := "by copy"
		if byRef {
			mode = "by reference"
		}
		err := o.withStores(func(stores core.Stores) error {
			mpa := core.NewProvenance(stores)
			mpa.ResolveDataset = func(string) (*dataset.Dataset, error) { return ds, nil }
			net, err := models.New(spec.Arch, 1000, 17)
			if err != nil {
				return err
			}
			base, err := mpa.Save(core.SaveInfo{Spec: spec, Net: net})
			if err != nil {
				return err
			}
			rec, err := cfg.TrainStep(net, ds, 3)
			if err != nil {
				return err
			}
			if byRef {
				rec.SetExternalDatasetRef("warehouse/co-512")
			}
			res, err := mpa.Save(core.SaveInfo{Spec: spec, Net: net, BaseID: base.ID, WithChecksums: true, Provenance: rec})
			if err != nil {
				return err
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\n", mode, mb(res.StorageBytes), ms(res.Duration))
			// Sanity: both modes recover the same model.
			got, err := mpa.Recover(res.ID, core.RecoverOptions{VerifyChecksums: true})
			if err != nil {
				return fmt.Errorf("abl-datasetref recover (%s): %w", mode, err)
			}
			if !nn.StateDictOf(got.Net).Equal(nn.StateDictOf(net)) {
				return fmt.Errorf("abl-datasetref: %s mode recovered a different model", mode)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return tw.Flush()
}

// AblationAdaptive compares the adaptive per-model approach selection
// (Section 4.7's future-work heuristic) against each fixed approach on a
// scenario that mixes dataset sizes: some derived models train on a small
// dataset (MPA-friendly) and some on a large one (PUA-friendly).
func AblationAdaptive(w io.Writer, o Opts) error {
	header(w, "Ablation: adaptive approach selection")
	small, err := dataset.Generate(dataset.Spec{Name: "small", Images: 64, H: 16, W: 16, Classes: 1000, Seed: 71})
	if err != nil {
		return err
	}
	big, err := dataset.Generate(dataset.CO512(o.Scale))
	if err != nil {
		return err
	}
	spec := models.Spec{Arch: models.MobileNetV2Name, NumClasses: 1000}
	cfg := o.flowConfig("adaptive", spec.Arch, evalflow.FullyUpdated, big.Spec)
	cfg.Train.Epochs = 1
	cfg.Opt = train.SGDConfig{LR: 0.01, Momentum: 0.9}

	tw := newTab(w)
	fmt.Fprintln(tw, "APPROACH\tTOTAL STORAGE (5 models)\tFINAL TTR")
	for _, ap := range append(approaches, "adaptive") {
		err := o.withStores(func(stores core.Stores) error {
			svc, err := evalflow.NewService(ap, stores)
			if err != nil {
				return err
			}
			net, err := models.New(spec.Arch, 1000, 23)
			if err != nil {
				return err
			}
			base, err := svc.Save(core.SaveInfo{Spec: spec, Net: net, WithChecksums: true})
			if err != nil {
				return err
			}
			total, lastID := base.StorageBytes, base.ID
			for i, ds := range []*dataset.Dataset{small, big, small, big} {
				rec, err := cfg.TrainStep(net, ds, uint64(100+i))
				if err != nil {
					return err
				}
				res, err := svc.Save(core.SaveInfo{Spec: spec, Net: net, BaseID: lastID, WithChecksums: true, Provenance: rec})
				if err != nil {
					return err
				}
				total += res.StorageBytes
				lastID = res.ID
			}
			t0 := time.Now()
			got, err := svc.Recover(lastID, core.RecoverOptions{VerifyChecksums: true})
			if err != nil {
				return err
			}
			ttr := time.Since(t0)
			if !nn.StateDictOf(got.Net).Equal(nn.StateDictOf(net)) {
				return errors.New("recovered a different model")
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\n", ap, mb(total), ms(ttr))
			return nil
		})
		if err != nil {
			return fmt.Errorf("abl-adaptive %s: %w", ap, err)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "expected: adaptive ≤ min(PUA, MPA) storage on the mixed-dataset scenario")
	return nil
}
