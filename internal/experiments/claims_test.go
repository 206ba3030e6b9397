package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/evalflow"
	"repro/internal/models"
	"repro/internal/train"
)

// The paper's headline claims (Section 4.2/4.3, abstract), asserted as
// machine-checked properties of the reproduction rather than eyeballed
// table output. Scaled-down datasets keep the runtime small; all claims are
// about ratios, which scaling preserves.

func claimsOpts(t *testing.T) Opts {
	o := Default()
	o.Scale = 0.02
	o.Runs = 1
	o.TrainEpochs = 1
	o.TrainBatches = 1
	o.BatchSize = 2
	o.Resolution = 16
	o.WorkDir = t.TempDir()
	return o
}

func runClaimFlow(t *testing.T, o Opts, approach, arch string, rel evalflow.Relation, measureTTR bool) *evalflow.Result {
	t.Helper()
	cfg := o.flowConfig(approach, arch, rel, dataset.CF512(o.Scale))
	cfg.MeasureTTR = measureTTR
	// A slightly hotter optimizer than the flow default: at this reduced
	// resolution and single-batch training the default clipped 1e-3 steps
	// can round below float32 ulp for some layers, which would make a
	// "fully updated" version not actually update every layer.
	cfg.Opt = train.SGDConfig{LR: 0.01, Momentum: 0.9, ClipNorm: 5}
	agg, err := o.sweep(cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return agg.Runs[0]
}

// Claim (§4.2): for partially updated model versions the PUA lowers storage
// dramatically (paper: −63.7% MobileNetV2, −95.6% ResNet-152); for fully
// updated versions it matches the baseline.
func TestClaimPUAStorageReduction(t *testing.T) {
	o := claimsOpts(t)
	arch := models.MobileNetV2Name

	ba := runClaimFlow(t, o, core.BaselineApproach, arch, evalflow.PartiallyUpdated, false)
	puaPartial := runClaimFlow(t, o, core.ParamUpdateApproach, arch, evalflow.PartiallyUpdated, false)
	puaFull := runClaimFlow(t, o, core.ParamUpdateApproach, arch, evalflow.FullyUpdated, false)

	baU3 := float64(ba.MedianStorage("U3-1-2"))
	partU3 := float64(puaPartial.MedianStorage("U3-1-2"))
	fullU3 := float64(puaFull.MedianStorage("U3-1-2"))

	if reduction := 1 - partU3/baU3; reduction < 0.5 {
		t.Fatalf("partial PUA reduction = %.1f%%, want > 50%% (paper: 63.7%%)", 100*reduction)
	}
	if ratio := fullU3 / baU3; ratio < 0.95 || ratio > 1.1 {
		t.Fatalf("full PUA / BA = %.2f, want ≈ 1 (paper: parameter update equivalent to snapshot)", ratio)
	}
}

// Claim (§4.2): MPA storage equals the dataset archive (within a few
// percent) regardless of architecture, so it beats the BA exactly when the
// dataset is smaller than the model.
func TestClaimMPAStorageIsDatasetSize(t *testing.T) {
	o := claimsOpts(t)
	dsBytes := float64(dataset.CF512(o.Scale).SizeBytes())

	mpa := runClaimFlow(t, o, core.ProvenanceApproach, models.MobileNetV2Name, evalflow.FullyUpdated, false)
	got := float64(mpa.MedianStorage("U3-1-2"))
	if got < dsBytes*0.9 || got > dsBytes*1.2 {
		t.Fatalf("MPA storage %.0f B vs dataset %.0f B — should track the dataset", got, dsBytes)
	}
	// Architecture independence: the same flow on a much bigger model
	// yields (nearly) the same U3 storage.
	mpaBig := runClaimFlow(t, o, core.ProvenanceApproach, models.ResNet18Name, evalflow.FullyUpdated, false)
	gotBig := float64(mpaBig.MedianStorage("U3-1-2"))
	if gotBig/got > 1.05 || got/gotBig > 1.05 {
		t.Fatalf("MPA storage depends on architecture: %.0f vs %.0f", got, gotBig)
	}
}

// Claim (§4.4): BA TTR is flat across use cases; PUA and MPA TTR grow with
// the derivation chain (staircase) and MPA is the slowest because it
// retrains.
func TestClaimTTRStaircase(t *testing.T) {
	o := claimsOpts(t)
	arch := models.MobileNetV2Name

	ba := runClaimFlow(t, o, core.BaselineApproach, arch, evalflow.FullyUpdated, true)
	mpa := runClaimFlow(t, o, core.ProvenanceApproach, arch, evalflow.FullyUpdated, true)

	// BA: last U3 recovery within 3× of the first (flat, noise allowed).
	baFirst := ba.MedianTTR("U3-1-1").Seconds()
	baLast := ba.MedianTTR("U3-2-4").Seconds()
	if baLast > 3*baFirst+0.05 {
		t.Fatalf("BA TTR not flat: %v → %v", baFirst, baLast)
	}
	// MPA: strictly growing within each phase, reset after U2.
	if !(mpa.MedianTTR("U3-1-4") > mpa.MedianTTR("U3-1-1")) {
		t.Fatalf("MPA phase-1 staircase missing: %v vs %v", mpa.MedianTTR("U3-1-4"), mpa.MedianTTR("U3-1-1"))
	}
	if !(mpa.MedianTTR("U3-2-1") < mpa.MedianTTR("U3-1-4")) {
		t.Fatalf("MPA staircase does not reset after U2: %v vs %v", mpa.MedianTTR("U3-2-1"), mpa.MedianTTR("U3-1-4"))
	}
	// MPA slower than BA on deep-chain recoveries.
	if !(mpa.MedianTTR("U3-2-4") > ba.MedianTTR("U3-2-4")) {
		t.Fatal("MPA TTR not above BA")
	}
}
