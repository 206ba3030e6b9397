// Command bench is the repository's one benchmark: a single-process load
// generator over five workloads that reports the paper's three numbers —
// time-to-save, time-to-recover, storage — end to end, and a per-layer
// ledger timed from outside the program. BENCHMARK.json at the root of
// the repository names its metrics, bounds and workloads; README.md in
// this directory says what each means.
//
//	bench -workload delta-chain-local -seed 1 -seconds 15 -trace 0
//	bench -workload all -runs 3 -out a.json
//	bench -compare a.json b.json
//	bench -agree -runs 3
//
// One workload prints its result as the last line of standard output.
// A non-zero exit means an operation failed or recovered a state whose
// hash is not the one recorded at save.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Float64("seconds", 0, "length of the measured phase (0 = run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1, write the spans as a Chrome trace-event file")
	out := fs.String("out", "", "write every run of this invocation, with its environment, to this file")
	runs := fs.Int("runs", 1, "runs per workload, seeds seed, seed+1, ...")
	workDir := fs.String("workdir", filepath.Join(".bench_build", "work"), "directory the stores are created under")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare a.json b.json")
	agree := fs.Bool("agree", false, "run two sets back to back and fail if an end-to-end cell differs by more than its bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	spec, err := loadSpec()
	if err != nil {
		return fail(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two files"))
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1))
	}
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}
	var selected []*workloadDef
	if *workload == "all" {
		selected = workloads
	} else if w := findWorkload(*workload); w != nil {
		selected = []*workloadDef{w}
	} else {
		return fail(fmt.Errorf("unknown workload %q", *workload))
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		return fail(err)
	}
	cfg := config{seed: *seed, seconds: *seconds, dir: *workDir}

	if *agree {
		return agreeSets(spec, selected, cfg, *runs)
	}
	rep, err := runSet(selected, cfg, *runs, *trace == 1, *traceOut, false)
	if err != nil {
		return fail(err)
	}
	if *out != "" {
		if err := writeReport(rep, *out); err != nil {
			return fail(err)
		}
	}
	return printSet(rep)
}

// runSet runs every selected workload runs times. reversed runs them in
// the opposite order, so that two sets do not share what came before each
// workload.
func runSet(selected []*workloadDef, cfg config, runs int, trace bool, traceOut string, reversed bool) (*report, error) {
	rep := &report{Env: currentEnvironment(cfg.seconds)}
	order := append([]*workloadDef(nil), selected...)
	if reversed {
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
	}
	for r := 0; r < runs; r++ {
		c := cfg
		c.seed = cfg.seed + uint64(r)
		for _, w := range order {
			var (
				rec runRecord
				err error
			)
			if trace {
				rec, err = runTraced(w, c, traceOut)
			} else {
				rec, err = runUntraced(w, c)
			}
			if err != nil {
				return nil, err
			}
			rep.Runs = append(rep.Runs, rec)
		}
	}
	return rep, nil
}

// printSet prints a set. One run is printed as the contract's single last
// line; several are printed as the report. The exit code is non-zero if
// any operation of any run failed.
func printSet(rep *report) int {
	code := 0
	for _, r := range rep.Runs {
		if r.Failed > 0 {
			fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed, first: %s\n", r.Workload, r.Failed, r.Attempted, r.FirstErr)
			code = 1
		}
	}
	if len(rep.Runs) == 1 {
		if err := lastLine(rep.Runs[0].result); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return code
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return code
}

func writeReport(rep *report, path string) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
