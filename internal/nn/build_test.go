package nn

import (
	"bytes"
	"testing"

	"repro/internal/tensor"
)

// demoArch is demoModel's architecture, its tensor-owning layers made by l.
func demoArch(l Layers) Module {
	return NewNamedSequential(
		Child{Name: "conv1", Module: l.Conv2d(1, 2, 3, 1, 1, 1, false)},
		Child{Name: "bn1", Module: l.BatchNorm2d(2)},
		Child{Name: "flatten", Module: NewFlatten()},
		Child{Name: "fc", Module: l.Linear(8, 3)},
	)
}

// The net BuildFrom builds has no tensor storage until the fill, and after
// it every tensor holds a copy of the state's — its own storage, so a
// write to the net leaves the state as it was.
func TestBuildFromFillsANetBuiltWithoutStorage(t *testing.T) {
	src := StateDictOf(demoModel(3))
	want := src.Hash()
	made := 0
	net, err := BuildFrom(src, func(l Layers) Module {
		m := demoArch(l)
		for _, s := range slotsOf(m) {
			made++
			if *s.field != nil {
				t.Errorf("%s has storage before the fill", s.key)
			}
		}
		return m
	})
	if err != nil {
		t.Fatal(err)
	}
	if made != src.Len() {
		t.Fatalf("the builder made %d tensors, want %d", made, src.Len())
	}
	got := StateDictOf(net)
	if !got.Equal(src) {
		t.Fatal("the filled net differs from its state")
	}
	for _, e := range got.Entries() {
		s, _ := src.Get(e.Key)
		if e.Tensor == s {
			t.Fatalf("%s shares the state's tensor", e.Key)
		}
		d := e.Tensor.Data()
		for i := range d {
			d[i] += 1
		}
	}
	if src.Hash() != want {
		t.Fatal("writing the filled net changed its state")
	}
}

// The zero Layers allocates every tensor at its layer's defaults: zeros,
// and ones for a batch norm's weight and running variance.
func TestZeroLayersAllocatesDefaults(t *testing.T) {
	for _, e := range StateDictOf(demoArch(Layers{})).Entries() {
		want := float32(0)
		if e.Key == "bn1.weight" || e.Key == "bn1.running_var" {
			want = 1
		}
		for _, v := range e.Tensor.Data() {
			if v != want {
				t.Fatalf("%s holds %v, want %v", e.Key, v, want)
			}
		}
	}
}

// BuildFrom holds LoadInto's rules — every key, every shape, no extras —
// and a state that breaks one yields the same error as LoadInto, and no
// net.
func TestBuildFromRejectsAStateThatDoesNotFit(t *testing.T) {
	full := StateDictOf(demoModel(4))
	missing := full.SubsetByLayers([]string{"conv1", "bn1"})
	fcw, _ := full.Get("fc.weight")
	missing.Set("fc.weight", fcw)
	missing.Set("pad", tensor.Zeros(1)) // the count matches; fc.bias is absent
	reshaped := full.Clone()
	reshaped.Set("fc.bias", tensor.Zeros(4))
	extra := full.Clone()
	extra.Set("fc.extra", tensor.Zeros(1))
	for name, sd := range map[string]*StateDict{"missing key": missing, "wrong shape": reshaped, "extra key": extra} {
		net, err := BuildFrom(sd, demoArch)
		if err == nil || net != nil {
			t.Fatalf("%s: BuildFrom returned a net (%v)", name, err)
		}
		loadErr := sd.LoadInto(demoModel(5))
		if loadErr == nil || loadErr.Error() != err.Error() {
			t.Fatalf("%s: BuildFrom says %q, LoadInto %v", name, err, loadErr)
		}
	}
}

// A net built from the state of a save digests only what is written after,
// as a net LoadInto filled does; one built from decoded bytes hashes all.
func TestBuildFromCarriesStamps(t *testing.T) {
	src := demoModel(6)
	saveOps(src)
	net, err := BuildFrom(StateDictOf(src).Clone(), demoArch)
	if err != nil {
		t.Fatal(err)
	}
	if ops := saveOps(net); ops != 0 {
		t.Fatalf("a net built from a stamped state hashed %d tensors, want 0", ops)
	}
	fc, _ := StateDictOf(net).Get("fc.weight")
	fc.Data()[0] += 1
	if ops := saveOps(net); ops != 1 {
		t.Fatalf("after one write the save pass hashed %d tensors, want 1", ops)
	}

	var buf bytes.Buffer
	if _, err := StateDictOf(src).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	blob, err := ReadStateDictBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	twin, err := BuildFrom(blob, demoArch)
	if err != nil {
		t.Fatal(err)
	}
	if ops, n := saveOps(twin), uint64(blob.Len()); ops != n {
		t.Fatalf("a net built from decoded bytes hashed %d tensors, want %d", ops, n)
	}
}
