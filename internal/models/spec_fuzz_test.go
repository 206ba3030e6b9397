package models

import (
	"strings"
	"testing"

	"repro/internal/nn"
)

// hostileSpec is 45 bytes of model code that once killed a recovery:
// ParseSpec accepted it, and Build asked NewLinear for a 64 GiB classifier.
const hostileSpec = `{"arch":"tinycnn","num_classes":1073741824}`

// A class count no real model has, or a negative one, is an error naming
// the count before anything is built.
func TestParseSpecRejectsImpossibleClassCounts(t *testing.T) {
	for _, tc := range []struct {
		code, count string
	}{
		{hostileSpec, "1073741824"},
		{`{"arch":"resnet18","num_classes":-3}`, "-3"},
		{`{"arch":"tinycnn","num_classes":65537}`, "65537"},
	} {
		_, err := ParseSpec([]byte(tc.code))
		if err == nil || !strings.Contains(err.Error(), tc.count) {
			t.Errorf("ParseSpec(%s): error %v, want one naming %s", tc.code, err, tc.count)
		}
	}
	// The bound admits ImageNet-21k, the largest class count in use, and 0
	// still means Build's default.
	for _, n := range []int{0, 21841, maxClasses} {
		s := Spec{Arch: TinyCNNName, NumClasses: n}
		b, err := s.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseSpec(b); err != nil {
			t.Errorf("ParseSpec(%s): %v", b, err)
		}
	}
}

// FuzzParseSpec feeds arbitrary bytes to ParseSpec: it must not panic, and
// a spec it accepts must re-encode to model code that parses back to the
// same spec. An accepted TinyCNN spec is also built, so a class count that
// passes the bound must be one Build can allocate; larger architectures
// are not built here.
func FuzzParseSpec(f *testing.F) {
	for _, arch := range EvaluationNames() {
		b, err := Spec{Arch: arch, NumClasses: 1000}.MarshalText()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(hostileSpec))
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := ParseSpec(b)
		if err != nil {
			return
		}
		code, err := s.MarshalText()
		if err != nil {
			t.Fatalf("accepted spec %+v does not encode: %v", s, err)
		}
		again, err := ParseSpec(code)
		if err != nil || again != s {
			t.Fatalf("spec %+v re-encoded as %s parses to %+v, %v", s, code, again, err)
		}
		if s.Arch != TinyCNNName {
			return
		}
		m, err := s.Build()
		if err != nil {
			t.Fatal(err)
		}
		want := s.NumClasses
		if want == 0 {
			want = 1000
		}
		if fc, ok := nn.StateDictOf(m).Get("fc.bias"); !ok || fc.Len() != want {
			t.Fatalf("spec %+v built a classifier of %v outputs, want %d", s, fc, want)
		}
	})
}
