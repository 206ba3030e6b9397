package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the program reads: the run
// length, and for every metric its unit, direction and bound.
type benchSpec struct {
	RunSeconds int          `json:"run_seconds"`
	Workloads  []nameWhy    `json:"workloads"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type nameWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the working directory (the root of
// the repository, where the command runs) or its parent (where the
// package's tests run).
func loadSpec() (*benchSpec, error) {
	var b []byte
	var err error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if b, err = os.ReadFile(path); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	spec := new(benchSpec)
	if err := json.Unmarshal(b, spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := new(report)
	if err := json.Unmarshal(b, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// values returns the metric's value in every untraced run of workload.
func (rep *report) values(workload, name string) []float64 {
	var out []float64
	for _, r := range rep.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && !r.Trace {
			out = append(out, m.Value)
		}
	}
	return out
}

// spread is the distance between the first and third quartile as a share
// of the median, with the quartiles Python's statistics.quantiles(n=4)
// gives, so that it reads the same as the driver's. Fewer than two values
// have no spread.
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := min(max(int(pos), 1), n-1)
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return ratio(q(3)-q(1), math.Abs(median(s)))
}

// cell is one (workload, metric) comparison of two sets.
type cell struct {
	workload string
	metric   metricSpec
	a, b     float64 // medians
	spread   float64 // the wider of the two sets' spreads
	worse    float64 // by how much b is worse than a, as a share of a
}

func (c cell) verdict(twoSided bool) string {
	switch d := c.worse; {
	case c.spread > c.metric.Bound:
		return "unresolved"
	case d > c.metric.Bound:
		return "worse"
	case -d > c.metric.Bound && twoSided:
		return "differs"
	case -d > c.metric.Bound:
		return "better"
	}
	return "ok"
}

func compareSets(spec *benchSpec, a, b *report) []cell {
	var cells []cell
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := a.values(w.Name, m.Name), b.values(w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			c := cell{workload: w.Name, metric: m, a: median(va), b: median(vb), spread: max(spread(va), spread(vb))}
			c.worse = ratio(c.b-c.a, math.Abs(c.a))
			if m.Better == "higher" {
				c.worse = -c.worse
			}
			cells = append(cells, c)
		}
	}
	return cells
}

// printCells prints the comparison and returns how many cells have a
// verdict that fails the comparison.
func printCells(cells []cell, twoSided bool) int {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "WORKLOAD\tMETRIC\tA\tB\tUNIT\tWORSE BY\tSPREAD\tBOUND\tVERDICT")
	bad := 0
	for _, c := range cells {
		v := c.verdict(twoSided)
		if v == "worse" || v == "differs" || (twoSided && v == "unresolved") {
			bad++
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%s\t%+.1f%%\t%.1f%%\t%.0f%%\t%s\n",
			c.workload, c.metric.Name, c.a, c.b, c.metric.Unit, 100*c.worse, 100*c.spread, 100*c.metric.Bound, v)
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return bad + 1
	}
	return bad
}

// compareFiles prints the per-cell delta of two -out files against the
// bounds and exits non-zero when b is worse than a in any cell. A cell
// whose spread is wider than its bound is unresolved, not unchanged.
func compareFiles(spec *benchSpec, pathA, pathB string) int {
	var sets [2]*report
	for i, path := range []string{pathA, pathB} {
		rep, err := readReport(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		sets[i] = rep
	}
	if sets[0].Env != sets[1].Env {
		fmt.Printf("environments differ:\n  a: %+v\n  b: %+v\n", sets[0].Env, sets[1].Env)
	}
	if printCells(compareSets(spec, sets[0], sets[1]), false) > 0 {
		return 1
	}
	return 0
}

// agreeSets runs the same code twice, the second time with the workloads
// in the opposite order, and fails if any end-to-end cell differs by more
// than its bound: the benchmark's own check that its bounds are wider
// than its noise.
func agreeSets(spec *benchSpec, selected []*workloadDef, cfg config, runs int) int {
	var sets [2]*report
	for i := range sets {
		rep, err := runSet(selected, cfg, runs, false, "", i == 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		for _, r := range rep.Runs {
			if r.Failed > 0 {
				fmt.Fprintf(os.Stderr, "bench: %s: %d operations failed: %s\n", r.Workload, r.Failed, r.FirstErr)
				return 1
			}
		}
		sets[i] = rep
	}
	if printCells(compareSets(spec, sets[0], sets[1]), true) > 0 {
		return 1
	}
	return 0
}
