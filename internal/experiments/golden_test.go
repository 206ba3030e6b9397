package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The experiment tests compare each experiment's output with a golden file
// in testdata/ after masking every number: timings, sizes and counts vary
// with the host and the scale, but which tables an experiment prints, their
// columns, their rows and the words around them must not. To accept an
// intended change, replace testdata/<id>.golden with the masked output the
// failing test prints.

// numberRE matches a number that stands on its own — sign, decimals and
// exponent included — together with the character before it. Digits inside
// a label (U3-1-2, CF-512, resnet18) follow a letter, digit, '-' or '.', so
// they stay.
var numberRE = regexp.MustCompile(`(^|[^\w.-])[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?`)

var blanksRE = regexp.MustCompile(`[ \t]+`)

// mask replaces every number in out with '#' and collapses the column
// padding, which follows the width of the numbers it aligns.
func mask(out string) string {
	lines := strings.Split(out, "\n")
	for i, l := range lines {
		l = numberRE.ReplaceAllString(l, "${1}#")
		lines[i] = strings.TrimRight(blanksRE.ReplaceAllString(l, " "), " ")
	}
	return strings.Join(lines, "\n")
}

// golden runs experiment id at fastOpts, fails the test unless its masked
// output matches testdata/<id>.golden, and returns the unmasked output.
func golden(t *testing.T, id string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Registry()[id](&buf, fastOpts(t)); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", id+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := mask(buf.String()); got != string(want) {
		t.Errorf("%s: output differs from testdata/%s.golden; masked output:\n%s", id, id, got)
	}
	return buf.String()
}
