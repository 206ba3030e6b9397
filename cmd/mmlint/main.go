// Command mmlint is the repo-specific static-analysis gate. It enforces
// invariants ordinary Go tooling cannot know about:
//
//	maprange-determinism  hash/Merkle/document-building code must not
//	                      iterate maps (byte-stable PUA/MPA representations)
//	closecheck            Close/Flush/Sync errors on writable handles must
//	                      be checked (durability of saved models)
//	panicfree             library packages return errors; only internal/nn
//	                      and internal/tensor shape checks may panic —
//	                      enforced through the call graph, not just at
//	                      panic sites
//	nakedgoroutine        docdb/evalflow goroutines need WaitGroup/channel
//	                      completion plumbing (leak-free shutdown)
//	hashpurity            nothing nondeterministic (clocks, math/rand, env,
//	                      pointer formatting, map order) may reach the
//	                      digest/serialization entry points
//	deadlinecheck         every net.Conn read/write in docdb must be
//	                      preceded by an armed deadline
//	lockheld              mutexes must not be held across blocking calls
//	boundedgo             goroutines launched in loops must be bounded by a
//	                      counted pool or semaphore
//	dataescape            a tensor Data() slice must stay in a local of the
//	                      function that took it, so no write can outlive
//	                      the save that stamps the tensor's digest
//	deadignore            //mmlint:ignore directives that suppress nothing
//	                      are themselves findings
//
// Usage:
//
//	go run ./cmd/mmlint [-json] [-only names] [-skip names] [packages]
//
// Findings are suppressed with a justified directive on or directly above
// the offending line:
//
//	//mmlint:ignore <analyzer>[,<analyzer>...] <reason>
//
// Exit status: 0 when clean, 1 with findings, 2 on load errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"repro/internal/par"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	only := flag.String("only", "", "comma-separated analyzers to run (default: all)")
	skip := flag.String("skip", "", "comma-separated analyzers to disable")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: mmlint [-json] [-only names] [-skip names] [packages]\n\nanalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-22s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(flag.CommandLine.Output(), "  %-22s %s\n", nameDeadIgnore,
			"suppression directive that no longer matches any finding")
		flag.PrintDefaults()
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	enabled, err := selectAnalyzers(*only, *skip)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmlint:", err)
		os.Exit(2)
	}
	findings, err := run(patterns, enabled)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmlint:", err)
		os.Exit(2)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "mmlint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "mmlint: %d finding(s)\n", len(findings))
		}
		os.Exit(1)
	}
}

// selectAnalyzers resolves the -only/-skip flags into the enabled set.
// deadignore judgements additionally require every analyzer a directive
// names to be enabled (see directive.judgeable), so a filtered run cannot
// misreport a suppression as dead.
func selectAnalyzers(only, skip string) (map[string]bool, error) {
	known := selectableNames()
	parse := func(flagName, v string) (map[string]bool, error) {
		if v == "" {
			return nil, nil
		}
		out := map[string]bool{}
		for _, n := range strings.Split(v, ",") {
			n = strings.TrimSpace(n)
			if !known[n] {
				var names []string
				for k := range known {
					names = append(names, k)
				}
				sort.Strings(names)
				return nil, fmt.Errorf("-%s: unknown analyzer %q (known: %s)", flagName, n, strings.Join(names, ", "))
			}
			out[n] = true
		}
		return out, nil
	}
	onlySet, err := parse("only", only)
	if err != nil {
		return nil, err
	}
	skipSet, err := parse("skip", skip)
	if err != nil {
		return nil, err
	}
	enabled := allEnabled()
	if onlySet != nil {
		for n := range enabled {
			enabled[n] = onlySet[n]
		}
	}
	for n := range skipSet {
		enabled[n] = false
	}
	return enabled, nil
}

// run loads the packages, builds the shared call graph, and produces the
// sorted, path-relativized list of findings across every enabled analyzer.
// Packages are analyzed on the internal/par pool; enabled == nil means all
// analyzers.
func run(patterns []string, enabled map[string]bool) ([]Finding, error) {
	if enabled == nil {
		enabled = allEnabled()
	}
	pkgs, modulePath, err := loadPackages(patterns)
	if err != nil {
		return nil, err
	}
	prog := buildProgram(pkgs, modulePath)
	results := make([][]Finding, len(pkgs))
	_ = par.For(len(pkgs), runtime.GOMAXPROCS(0), func(i int) error {
		results[i] = runPackage(prog, pkgs[i], enabled)
		return nil
	})
	var findings []Finding
	for _, fs := range results {
		findings = append(findings, fs...)
	}
	relativize(findings)
	sortFindings(findings)
	return findings, nil
}

// relativize rewrites absolute file paths below the working directory as
// relative ones, so output is stable across checkouts.
func relativize(fs []Finding) {
	cwd, err := os.Getwd()
	if err != nil {
		return
	}
	for i := range fs {
		rel, err := filepath.Rel(cwd, fs[i].File)
		if err == nil && !strings.HasPrefix(rel, "..") {
			fs[i].File = filepath.ToSlash(rel)
		}
	}
}
