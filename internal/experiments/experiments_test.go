package experiments

import (
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

func TestTable1(t *testing.T) { golden(t, "tab1") }

// The golden file masks numbers; the paper's parameter counts must also
// match exactly.
func TestTable2ReportsPaperCounts(t *testing.T) {
	out := golden(t, "tab2")
	for _, want := range []string{"3504872", "6624904", "11689512", "25557032", "60192808", "1281000", "1025000", "513000", "2049000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table2 missing %q:\n%s", want, out)
		}
	}
}

func TestTable3(t *testing.T) { golden(t, "tab3") }

func TestFigure2(t *testing.T) { golden(t, "fig2") }

// The golden file masks numbers; the paper's comparison counts must also
// match exactly (tabwriter pads with spaces, so compare collapsed fields).
func TestFigure4(t *testing.T) {
	joined := strings.Join(strings.Fields(golden(t, "fig4")), " ")
	for _, want := range []string{"8 2 7 8", "64 2 13 64", "128 2 15 128"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("Figure4 missing %q:\n%s", want, joined)
		}
	}
}

func TestFigure7StorageShapes(t *testing.T) { golden(t, "fig7") }

func TestFigure8(t *testing.T) { golden(t, "fig8") }

func TestFigure9(t *testing.T) { golden(t, "fig9") }

func TestFigure10And11(t *testing.T) {
	golden(t, "fig10")
	golden(t, "fig11")
}

func TestFigure12(t *testing.T) {
	if testing.Short() {
		t.Skip("builds all five architectures")
	}
	golden(t, "fig12")
}

func TestFigure13(t *testing.T) { golden(t, "fig13") }

func TestFigures14And15Distributed(t *testing.T) {
	golden(t, "fig14")
	golden(t, "fig15")
}

func TestAblations(t *testing.T) {
	for _, id := range []string{"abl-merkle", "abl-checksums", "abl-datasetref", "abl-adaptive", "abl-bandwidth", "abl-faults"} {
		out := golden(t, id)
		if id != "abl-faults" {
			continue
		}
		// The crash sweep kills a baseline save at each of its six crash
		// points exactly once.
		for _, point := range []string{"staged", "blob:code", "blob:params", "doc:env", "commit.before", "commit.window"} {
			n := 0
			for _, line := range strings.Split(out, "\n") {
				if f := strings.Fields(line); len(f) > 0 && f[0] == point {
					n++
				}
			}
			if n != 1 {
				t.Errorf("crash point %q killed %d times, want once:\n%s", point, n, out)
			}
		}
	}
}
