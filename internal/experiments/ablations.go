package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
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
	tw := newTab(w)
	fmt.Fprintln(tw, "DIFF\tSAVE TIME (derived, partial)\tUPDATE SIZE")
	for _, useMerkle := range []bool{true, false} {
		stores, cleanup, err := newLocalStores(o.WorkDir)
		if err != nil {
			return err
		}
		pua := core.NewParamUpdate(stores)
		pua.UseMerkle = useMerkle
		spec := models.Spec{Arch: arch, NumClasses: 1000}
		net, err := models.New(arch, 1000, 9)
		if err != nil {
			cleanup()
			return err
		}
		base, err := pua.Save(core.SaveInfo{Spec: spec, Net: net})
		if err != nil {
			cleanup()
			return err
		}
		models.FreezeForPartialUpdate(arch, net)
		perturbClassifier(arch, net, 1e-3)
		res, err := pua.Save(core.SaveInfo{Spec: spec, Net: net, BaseID: base.ID})
		if err != nil {
			cleanup()
			return err
		}
		name := "naive"
		if useMerkle {
			name = "merkle"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\n", name, ms(res.Duration), mb(res.FileBytes))
		cleanup()
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
		stores, cleanup, err := newLocalStores(o.WorkDir)
		if err != nil {
			return err
		}
		ba := core.NewBaseline(stores)
		net, err := models.New(arch, 1000, 13)
		if err != nil {
			cleanup()
			return err
		}
		res, err := ba.Save(core.SaveInfo{Spec: models.Spec{Arch: arch, NumClasses: 1000}, Net: net, WithChecksums: withChecksums})
		if err != nil {
			cleanup()
			return err
		}
		rec, err := ba.Recover(res.ID, core.RecoverOptions{VerifyChecksums: withChecksums})
		if err != nil {
			cleanup()
			return err
		}
		fmt.Fprintf(tw, "%v\t%s\t%s\t%s\n", withChecksums, ms(res.Duration), ms(rec.Timing.Total()), ms(rec.Timing.Verify))
		cleanup()
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
	tw := newTab(w)
	fmt.Fprintln(tw, "MODE\tSTORAGE (derived save)\tTTS")
	for _, byRef := range []bool{false, true} {
		stores, cleanup, err := newLocalStores(o.WorkDir)
		if err != nil {
			return err
		}
		mpa := core.NewProvenance(stores)
		mpa.DatasetByReference = byRef
		mpa.ResolveDataset = func(string) (*dataset.Dataset, error) { return ds, nil }
		spec := models.Spec{Arch: models.MobileNetV2Name, NumClasses: 1000}
		net, err := models.New(models.MobileNetV2Name, 1000, 17)
		if err != nil {
			cleanup()
			return err
		}
		base, err := mpa.Save(core.SaveInfo{Spec: spec, Net: net})
		if err != nil {
			cleanup()
			return err
		}
		loader, err := train.NewDataLoader(ds, train.LoaderConfig{BatchSize: o.BatchSize, OutH: o.Resolution, OutW: o.Resolution, Shuffle: true, Seed: 2})
		if err != nil {
			cleanup()
			return err
		}
		svc := train.NewImageClassifierTrainService(
			train.ServiceConfig{Epochs: o.TrainEpochs, BatchesPerEpoch: o.TrainBatches, Seed: 3, Deterministic: true},
			loader, train.NewSGD(train.SGDConfig{LR: 0.01, Momentum: 0.9}))
		rec, err := core.NewProvenanceRecord(svc)
		if err != nil {
			cleanup()
			return err
		}
		if _, err := rec.Train(net); err != nil {
			cleanup()
			return err
		}
		rec.SetExternalDatasetRef("warehouse/co-512")
		res, err := mpa.Save(core.SaveInfo{Spec: spec, Net: net, BaseID: base.ID, WithChecksums: true, Provenance: rec})
		if err != nil {
			cleanup()
			return err
		}
		mode := "by copy"
		if byRef {
			mode = "by reference"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\n", mode, mb(res.StorageBytes), ms(res.Duration))
		// Sanity: both modes recover the same model.
		got, err := mpa.Recover(res.ID, core.RecoverOptions{VerifyChecksums: true})
		if err != nil {
			cleanup()
			return fmt.Errorf("abl-datasetref recover (%s): %w", mode, err)
		}
		if !nn.StateDictOf(got.Net).Equal(nn.StateDictOf(net)) {
			cleanup()
			return fmt.Errorf("abl-datasetref: %s mode recovered a different model", mode)
		}
		cleanup()
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
	arch := models.MobileNetV2Name
	spec := models.Spec{Arch: arch, NumClasses: 1000}

	runScenario := func(approach string) (int64, time.Duration, error) {
		stores, cleanup, err := newLocalStores(o.WorkDir)
		if err != nil {
			return 0, 0, err
		}
		defer cleanup()
		var svc core.SaveService
		switch approach {
		case "adaptive":
			svc = core.NewAdaptive(stores)
		case core.ParamUpdateApproach:
			svc = core.NewParamUpdate(stores)
		case core.ProvenanceApproach:
			svc = core.NewProvenance(stores)
		default:
			svc = core.NewBaseline(stores)
		}
		net, err := models.New(arch, 1000, 23)
		if err != nil {
			return 0, 0, err
		}
		base, err := svc.Save(core.SaveInfo{Spec: spec, Net: net, WithChecksums: true})
		if err != nil {
			return 0, 0, err
		}
		total := base.StorageBytes
		lastID := base.ID
		for i, ds := range []*dataset.Dataset{small, big, small, big} {
			loader, err := train.NewDataLoader(ds, train.LoaderConfig{BatchSize: o.BatchSize, OutH: o.Resolution, OutW: o.Resolution, Shuffle: true, Seed: uint64(i)})
			if err != nil {
				return 0, 0, err
			}
			tsvc := train.NewImageClassifierTrainService(
				train.ServiceConfig{Epochs: 1, BatchesPerEpoch: o.TrainBatches, Seed: uint64(100 + i), Deterministic: true},
				loader, train.NewSGD(train.SGDConfig{LR: 0.01, Momentum: 0.9}))
			rec, err := core.NewProvenanceRecord(tsvc)
			if err != nil {
				return 0, 0, err
			}
			if _, err := rec.Train(net); err != nil {
				return 0, 0, err
			}
			res, err := svc.Save(core.SaveInfo{Spec: spec, Net: net, BaseID: lastID, WithChecksums: true, Provenance: rec})
			if err != nil {
				return 0, 0, err
			}
			total += res.StorageBytes
			lastID = res.ID
		}
		t0 := time.Now()
		got, err := svc.Recover(lastID, core.RecoverOptions{VerifyChecksums: true})
		if err != nil {
			return 0, 0, err
		}
		if !nn.StateDictOf(got.Net).Equal(nn.StateDictOf(net)) {
			return 0, 0, fmt.Errorf("abl-adaptive: %s recovered a different model", approach)
		}
		return total, time.Since(t0), nil
	}

	tw := newTab(w)
	fmt.Fprintln(tw, "APPROACH\tTOTAL STORAGE (5 models)\tFINAL TTR")
	for _, ap := range []string{core.BaselineApproach, core.ParamUpdateApproach, core.ProvenanceApproach, "adaptive"} {
		storage, ttr, err := runScenario(ap)
		if err != nil {
			return fmt.Errorf("abl-adaptive %s: %w", ap, err)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\n", ap, mb(storage), ms(ttr))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "expected: adaptive ≤ min(PUA, MPA) storage on the mixed-dataset scenario")
	return nil
}
