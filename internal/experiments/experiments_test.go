package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/models"
)

// fastOpts returns the cheapest options that still run every experiment's
// real code path.
func fastOpts(t *testing.T) Opts {
	o := Default()
	o.Scale = 0.01
	o.Runs = 1
	o.Nodes = 2
	o.U3PerPhase = 2
	o.Archs = []string{models.MobileNetV2Name}
	o.TrainEpochs = 1
	o.TrainBatches = 1
	o.BatchSize = 2
	o.Resolution = 16
	o.WorkDir = t.TempDir()
	return o
}

func TestRegistryCoversOrder(t *testing.T) {
	reg := Registry()
	for _, id := range Order() {
		if _, ok := reg[id]; !ok {
			t.Fatalf("Order lists %q but Registry lacks it", id)
		}
	}
	if len(reg) != len(Order()) {
		t.Fatalf("registry has %d entries, order %d", len(reg), len(Order()))
	}
}

func TestTable1(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(&buf, fastOpts(t)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"INet_val", "mINet_val", "CF-512", "CO-512", "U2", "U3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table1 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable2ReportsPaperCounts(t *testing.T) {
	var buf bytes.Buffer
	if err := Table2(&buf, fastOpts(t)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"3504872", "6624904", "11689512", "25557032", "60192808", "1281000", "1025000", "513000", "2049000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table2 missing %q:\n%s", want, out)
		}
	}
}

func TestTable3(t *testing.T) {
	var buf bytes.Buffer
	if err := Table3(&buf, fastOpts(t)); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"STANDARD", "DIST-20", "402"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("Table3 missing %q", want)
		}
	}
}

func TestFigure2(t *testing.T) {
	var buf bytes.Buffer
	if err := Figure2(&buf, fastOpts(t)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "serial") || !strings.Contains(buf.String(), "parallel") {
		t.Fatalf("Figure2 output:\n%s", buf.String())
	}
}

func TestFigure4(t *testing.T) {
	var buf bytes.Buffer
	if err := Figure4(&buf, fastOpts(t)); err != nil {
		t.Fatal(err)
	}
	// The exact comparison counts of the paper (tabwriter pads with
	// spaces, so compare collapsed fields).
	fields := strings.Fields(buf.String())
	joined := strings.Join(fields, " ")
	for _, want := range []string{"8 2 7 8", "64 2 13 64", "128 2 15 128"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("Figure4 missing %q:\n%s", want, buf.String())
		}
	}
}

func TestFigure7StorageShapes(t *testing.T) {
	var buf bytes.Buffer
	if err := Figure7(&buf, fastOpts(t)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "param_update vs baseline") {
		t.Fatalf("Figure7 missing headline reductions:\n%s", out)
	}
	if !strings.Contains(out, "partial updated") || !strings.Contains(out, "full updated") {
		t.Fatalf("Figure7 missing relations:\n%s", out)
	}
}

func TestFigure8(t *testing.T) {
	var buf bytes.Buffer
	o := fastOpts(t)
	if err := Figure8(&buf, o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, arch := range models.EvaluationNames() {
		if !strings.Contains(out, arch) {
			t.Fatalf("Figure8 missing %s:\n%s", arch, out)
		}
	}
}

func TestFigure9(t *testing.T) {
	var buf bytes.Buffer
	if err := Figure9(&buf, fastOpts(t)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "CF-512") || !strings.Contains(buf.String(), "CO-512") {
		t.Fatalf("Figure9 output:\n%s", buf.String())
	}
}

func TestFigure10And11(t *testing.T) {
	o := fastOpts(t)
	var buf bytes.Buffer
	if err := Figure10(&buf, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "U3-1-1") {
		t.Fatalf("Figure10 output:\n%s", buf.String())
	}
	buf.Reset()
	if err := Figure11(&buf, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "provenance") {
		t.Fatalf("Figure11 output:\n%s", buf.String())
	}
}

func TestFigure12(t *testing.T) {
	if testing.Short() {
		t.Skip("builds all five architectures")
	}
	o := fastOpts(t)
	var buf bytes.Buffer
	if err := Figure12(&buf, o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, arch := range models.EvaluationNames() {
		if !strings.Contains(out, arch) {
			t.Fatalf("Figure12 missing %s:\n%s", arch, out)
		}
	}
	if !strings.Contains(out, "CHECK ENV") {
		t.Fatal("Figure12 must report check-env separately")
	}
}

func TestFigure13(t *testing.T) {
	o := fastOpts(t)
	var buf bytes.Buffer
	if err := Figure13(&buf, o); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "deterministic") || !strings.Contains(out, "non-deterministic") {
		t.Fatalf("Figure13 output:\n%s", out)
	}
	if !strings.Contains(out, "resnet18") {
		t.Fatalf("Figure13 missing resnet18:\n%s", out)
	}
}

func TestFigures14And15Distributed(t *testing.T) {
	o := fastOpts(t)
	var buf bytes.Buffer
	if err := Figure14(&buf, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "DIST-2") {
		t.Fatalf("Figure14 output:\n%s", buf.String())
	}
	buf.Reset()
	if err := Figure15(&buf, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "U3-2-2") {
		t.Fatalf("Figure15 output:\n%s", buf.String())
	}
}

func TestAblations(t *testing.T) {
	o := fastOpts(t)
	for name, fn := range map[string]Func{
		"merkle":     AblationMerkle,
		"checksums":  AblationChecksums,
		"datasetref": AblationDatasetRef,
		"adaptive":   AblationAdaptive,
		"bandwidth":  AblationBandwidth,
	} {
		var buf bytes.Buffer
		if err := fn(&buf, o); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s produced no output", name)
		}
	}
}
