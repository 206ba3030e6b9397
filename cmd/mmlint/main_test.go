package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/findings.golden")

// fixturePackages lists every fixture package, bad and clean alike, so the
// golden file also proves the absence of false positives.
var fixturePackages = []string{
	"./testdata/src/maprange",
	"./testdata/src/closecheck",
	"./testdata/src/spancheck",
	"./testdata/src/panicfree",
	"./testdata/src/panicchain/depot",
	"./testdata/src/panicchain/caller",
	"./testdata/src/hashpurity/clock",
	"./testdata/src/hashpurity/tensor",
	"./testdata/src/hashpurity/core",
	"./testdata/src/implementer/filestore",
	"./testdata/src/implementer/core",
	"./testdata/src/deadline/docdb",
	"./testdata/src/lockheld",
	"./testdata/src/boundedgo",
	"./testdata/src/dataescape",
	"./testdata/src/dataescape/tensor",
	"./testdata/src/internal/nn",
	"./testdata/src/docdb",
	"./testdata/src/muxdemux/docdb",
	"./testdata/src/directives",
	"./testdata/src/clean",
}

// TestFixtureFindings locks the exact findings — file:line:col, analyzer
// name, and message — that the fixture tree produces.
func TestFixtureFindings(t *testing.T) {
	findings, err := run(fixturePackages, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, f := range findings {
		fmt.Fprintln(&buf, f)
	}
	const golden = "testdata/findings.golden"
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("findings diverge from %s (re-run with -update after verifying):\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// TestFixtureAnalyzerCoverage asserts every analyzer fires on its own
// fixture and that each suppressed/clean case stays quiet.
func TestFixtureAnalyzerCoverage(t *testing.T) {
	findings, err := run(fixturePackages, nil)
	if err != nil {
		t.Fatal(err)
	}
	perAnalyzer := map[string]int{}
	for _, f := range findings {
		perAnalyzer[f.Analyzer]++
		if strings.Contains(f.File, "src/clean") || strings.Contains(f.File, "src/internal/nn") {
			t.Errorf("false positive in clean fixture: %s", f)
		}
	}
	want := map[string]int{
		nameMapRange:       2,
		nameCloseCheck:     5, // three discarded close-like errors, two leaked spans
		namePanicFree:      3, // one direct site, one seeded depot panic, one cross-package escape
		nameNakedGoroutine: 3, // two seeded launches, one untracked demux reader
		nameHashPurity:     8, // clock, rand, %p, env, map order — clock via a cross-package call — a clock under core's entry point, one behind an interface whose implementer lives in the interface's own package, and one behind an interface whose implementer names a func parameter's parameters differently
		nameDeadlineCheck:  4, // direct conn.Read, conn handed to an io.Reader parameter, a read through a bufio.Reader wrapping the conn, undeadlined demux read loop
		nameLockHeld:       4, // sleep, deferred-unlock file I/O, transitive channel receive, waiter send under the demux lock
		nameBoundedGo:      3, // range-over-slice spawn, for{} spawn, per-request spawn off a request channel
		nameDataEscape:     8, // field, composite-literal field, map element, appended slice element, package variable, channel, return value, goroutine closure
		nameDeadIgnore:     1, // well-formed directive matching nothing
		"mmlint":           2, // malformed directives
	}
	for name, n := range want {
		if perAnalyzer[name] != n {
			t.Errorf("analyzer %s: %d findings, want %d", name, perAnalyzer[name], n)
		}
	}
}

// TestSuppressions checks both directive placements (same line, line
// above) actually silence findings in the fixtures. mmlint and deadignore
// findings are themselves anchored at directive lines, so they are skipped.
func TestSuppressions(t *testing.T) {
	findings, err := run(fixturePackages, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.Analyzer == "mmlint" || f.Analyzer == nameDeadIgnore {
			continue
		}
		if f.Line > 0 {
			src, err := os.ReadFile(f.File)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(string(src), "\n")
			for _, l := range []int{f.Line - 1, f.Line} {
				if l-1 >= 0 && l-1 < len(lines) && strings.Contains(lines[l-1], "mmlint:ignore") {
					t.Errorf("finding survived a suppression directive: %s", f)
				}
			}
		}
	}
}

// TestAnalyzerFilter checks -only/-skip selection: a skipped analyzer's
// findings disappear, and deadignore does not misjudge directives whose
// analyzer did not run.
func TestAnalyzerFilter(t *testing.T) {
	enabled, err := selectAnalyzers(nameLockHeld, "")
	if err != nil {
		t.Fatal(err)
	}
	findings, err := run([]string{"./testdata/src/lockheld", "./testdata/src/boundedgo"}, enabled)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.Analyzer != nameLockHeld && f.Analyzer != "mmlint" {
			t.Errorf("analyzer %s ran despite -only=%s: %s", f.Analyzer, nameLockHeld, f)
		}
	}
	if len(findings) != 3 {
		t.Errorf("got %d findings under -only=%s, want 3", len(findings), nameLockHeld)
	}

	enabled, err = selectAnalyzers("", nameBoundedGo)
	if err != nil {
		t.Fatal(err)
	}
	findings, err = run([]string{"./testdata/src/boundedgo"}, enabled)
	if err != nil {
		t.Fatal(err)
	}
	// boundedgo is skipped: its two seeded findings vanish, and the package's
	// boundedgo suppression must NOT be reported dead — the analyzer it
	// names did not run.
	for _, f := range findings {
		t.Errorf("unexpected finding with boundedgo skipped: %s", f)
	}

	if _, err := selectAnalyzers("definitely-not-an-analyzer", ""); err == nil {
		t.Error("want an error for an unknown -only analyzer")
	}
}

// TestRepoIsClean is the gate the fixtures exist to protect: the real tree
// must have zero findings.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads every package in the module")
	}
	findings, err := run([]string{"../..."}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("unexpected finding: %s", f)
	}
}

// TestCoreDigestEntryExists keeps hashpurity anchored in the real core
// package: its entry point there is matched by name, so a rename would
// otherwise turn the bytes-are-pure check off without a single finding.
func TestCoreDigestEntryExists(t *testing.T) {
	pkgs, modulePath, err := loadPackages([]string{"../../internal/core"})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range buildProgram(pkgs, modulePath).fns {
		if strings.HasSuffix(f.pkg.ImportPath, "/internal/core") && isDigestEntry(f) {
			return
		}
	}
	t.Fatalf("internal/core has no function named %s: hashpurity has lost its entry point there", coreDigestEntry)
}

// TestExitCodes runs the binary the way CI does and checks the contract:
// 1 with findings, 0 when clean.
func TestExitCodes(t *testing.T) {
	out, err := exec.Command("go", "run", ".", "./testdata/src/panicfree").CombinedOutput()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
		t.Fatalf("want exit code 1 on bad fixture, got err=%v output=%s", err, out)
	}
	if !strings.Contains(string(out), "panicfree") {
		t.Fatalf("output missing finding: %s", out)
	}
	if out, err := exec.Command("go", "run", ".", "./testdata/src/clean").CombinedOutput(); err != nil {
		t.Fatalf("want exit code 0 on clean fixture, got err=%v output=%s", err, out)
	}
}

// TestJSONOutput checks the machine-readable mode round-trips findings.
func TestJSONOutput(t *testing.T) {
	out, err := exec.Command("go", "run", ".", "-json", "./testdata/src/docdb").Output()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
		t.Fatalf("want exit code 1, got %v", err)
	}
	var findings []Finding
	if err := json.Unmarshal(out, &findings); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if len(findings) != 2 {
		t.Fatalf("got %d findings, want 2: %+v", len(findings), findings)
	}
	for _, f := range findings {
		if f.Analyzer != nameNakedGoroutine || f.File != "testdata/src/docdb/docdb.go" || f.Line == 0 {
			t.Errorf("unexpected finding %+v", f)
		}
	}
}
