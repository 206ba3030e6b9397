package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

func checkMetrics(t *testing.T, got map[string]metric, want []metricSpec) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics reported, BENCHMARK.json names %d", len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s is missing", m.Name)
		case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
			t.Errorf("metric %s = %v", m.Name, g.Value)
		case g.Unit != m.Unit:
			t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", m.Name, g.Unit, m.Unit)
		}
	}
}

// Every workload, at smoke scale, reports every metric BENCHMARK.json
// names, with the stated unit, and fails no operation.
func TestSmokeEveryWorkload(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, nw := range spec.Workloads {
		t.Run(nw.Name, func(t *testing.T) {
			w := mustFind(t, nw.Name)
			rec, err := runUntraced(w, smallRun(t, 1, 1))
			if err != nil {
				t.Fatal(err)
			}
			if rec.Failed != 0 || rec.Attempted == 0 {
				t.Errorf("attempted %d, failed %d: %s", rec.Attempted, rec.Failed, rec.FirstErr)
			}
			checkMetrics(t, rec.Metrics, spec.EndToEnd)
			for _, m := range spec.EndToEnd {
				if rec.Metrics[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, rec.Metrics[m.Name].Value)
				}
			}

			traceOut := t.TempDir() + "/trace.json"
			rec, err = runTraced(w, smallRun(t, 1, 1), traceOut)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Failed != 0 {
				t.Errorf("traced pass failed %d operations: %s", rec.Failed, rec.FirstErr)
			}
			checkMetrics(t, rec.Metrics, spec.PerLayer)
			var chrome struct {
				TraceEvents []json.RawMessage `json:"traceEvents"`
			}
			if b, err := os.ReadFile(traceOut); err != nil {
				t.Error(err)
			} else if err := json.Unmarshal(b, &chrome); err != nil || len(chrome.TraceEvents) == 0 {
				t.Errorf("span file: %d events, %v", len(chrome.TraceEvents), err)
			}
		})
	}
}

// BENCHMARK.json keeps to the limits the driver refuses a file over.
func TestBenchmarkJSONContract(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file map[string]json.RawMessage
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := file[key]; !ok {
			t.Errorf("key %q is missing", key)
		}
	}
	if len(file) != 6 || len(b) > 64<<10 {
		t.Errorf("%d keys, %d bytes", len(file), len(b))
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range spec.Workloads {
		use(w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range spec.EndToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in s, better lower")
	}
	for _, m := range spec.PerLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer metric %+v", m)
		}
	}
}

func TestSpreadReadsLikeThePythonQuartiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := spread(xs); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := spread([]float64{3}); got != 0 {
		t.Errorf("spread of one value = %v", got)
	}
}

func TestVerdicts(t *testing.T) {
	m := metricSpec{Name: "save_p50_ms", Better: "lower", Bound: 0.10}
	for _, tc := range []struct {
		c        cell
		twoSided bool
		want     string
	}{
		{cell{metric: m, worse: 0.05}, false, "ok"},
		{cell{metric: m, worse: 0.15}, false, "worse"},
		{cell{metric: m, worse: -0.15}, false, "better"},
		{cell{metric: m, worse: -0.15}, true, "differs"},
		{cell{metric: m, worse: 0.15, spread: 0.2}, false, "unresolved"},
	} {
		if got := tc.c.verdict(tc.twoSided); got != tc.want {
			t.Errorf("verdict(%+v) = %s, want %s", tc.c, got, tc.want)
		}
	}
}
