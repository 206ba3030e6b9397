package nn

import (
	"bytes"
	"math"
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
