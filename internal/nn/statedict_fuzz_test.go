package nn

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// checkedProd is the number of values dims describe, or -1 when that
// product overflows int — where tensor.Prod would wrap.
func checkedProd(dims []int) int {
	for _, d := range dims {
		if d == 0 {
			return 0
		}
	}
	n := 1
	for _, d := range dims {
		if n > math.MaxInt/d {
			return -1
		}
		n *= d
	}
	return n
}

// FuzzReadStateDict feeds arbitrary bytes to both state-dict decoders. No
// input may panic them; they fail together or decode the same dict; every
// tensor holds as many values as its shape claims; and a decoded dict
// re-serializes to bytes that decode back to an equal dict. The checked-in
// corpus (testdata/fuzz) holds version-1 and version-2 serializations of a
// TinyCNN and two blobs that once broke the decoders: a header claiming
// 0x7fffffff entries, and an entry whose dims multiply past the range of
// int.
func FuzzReadStateDict(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		copied, errCopied := ReadStateDictBytes(b)
		mapped, errMapped := ReadStateDictMapped(b, b)
		if (errCopied == nil) != (errMapped == nil) {
			t.Fatalf("ReadStateDictBytes: %v; ReadStateDictMapped: %v", errCopied, errMapped)
		}
		if errCopied != nil {
			return
		}
		if !copied.Equal(mapped) {
			t.Fatal("the copying and the mapped decode differ")
		}
		for _, e := range copied.Entries() {
			if want := checkedProd(e.Tensor.Shape()); e.Tensor.Len() != want {
				t.Fatalf("%q: %d values under shape %v", e.Key, e.Tensor.Len(), e.Tensor.Shape())
			}
		}
		var buf bytes.Buffer
		if _, err := copied.WriteTo(&buf); err != nil {
			t.Fatalf("re-serializing a decoded dict: %v", err)
		}
		again, err := ReadStateDictBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("decoding a re-serialized dict: %v", err)
		}
		if !again.Equal(copied) {
			t.Fatal("a re-serialized dict decodes differently")
		}
	})
}

// stateDictCorpus returns the blobs of FuzzReadStateDict's checked-in
// corpus (testdata/fuzz/FuzzReadStateDict), by file name. Each file is in
// the fuzzer's "go test fuzz v1" format: a header line, then one []byte
// literal.
func stateDictCorpus(tb testing.TB) map[string][]byte {
	tb.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzReadStateDict")
	entries, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		header, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		lit, ok := strings.CutPrefix(lit, "[]byte(")
		if lit, ok2 := strings.CutSuffix(lit, ")"); header == "go test fuzz v1" && ok && ok2 {
			if b, err := strconv.Unquote(lit); err == nil {
				out[e.Name()] = []byte(b)
				continue
			}
		}
		tb.Fatalf("%s: not a one-[]byte corpus file", e.Name())
	}
	return out
}

// FuzzFramesHash feeds arbitrary bytes to AuditFramesHash, which must
// never panic, and checks the two sides of the frames hash against each
// other: for every dict the bytes decode to, the hash a save records
// (FramesHash, from the digests WriteToWithDigests computed) equals the
// audit of the bytes written. Seeds are FuzzReadStateDict's corpus.
func FuzzFramesHash(f *testing.F) {
	for _, b := range stateDictCorpus(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		audited, auditErr := AuditFramesHash(b)
		sd, err := ReadStateDictBytes(b)
		if (auditErr == nil) != (err == nil) {
			t.Fatalf("AuditFramesHash: %v; ReadStateDictBytes: %v", auditErr, err)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := sd.WriteToWithDigests(&buf); err != nil {
			t.Fatalf("re-serializing a decoded dict: %v", err)
		}
		saved, err := sd.FramesHash()
		if err != nil {
			t.Fatal(err)
		}
		again, err := AuditFramesHash(buf.Bytes())
		if err != nil {
			t.Fatalf("auditing a serialized dict: %v", err)
		}
		if saved != again {
			t.Fatalf("a save records %s, its bytes audit as %s", saved, again)
		}
		if bytes.Equal(b, buf.Bytes()) != (audited == again) {
			t.Fatalf("the input and its re-serialization audit as %s and %s; equal bytes: %v", audited, again, bytes.Equal(b, buf.Bytes()))
		}
	})
}
