package filestore

import (
	"bytes"
	"errors"
	"testing"
)

func TestOpenMappedMatchesReadAll(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	blob := bytes.Repeat([]byte("mapped-bytes-"), 1000)
	id, _, _, err := s.SaveBytes(blob)
	if err != nil {
		t.Fatal(err)
	}

	m, err := s.OpenMapped(id)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if !bytes.Equal(m.Bytes(), blob) {
		t.Fatal("mapped bytes differ from stored bytes")
	}
	if m.Mapped() != MmapEnabled() {
		t.Fatalf("Mapped() = %v with MmapEnabled() = %v", m.Mapped(), MmapEnabled())
	}

	// Close is idempotent and leaves a second, independent open unaffected.
	m2, err := s.OpenMapped(id)
	if err != nil {
		t.Fatal(err)
	}
	m.Close()
	m.Close()
	if !bytes.Equal(m2.Bytes(), blob) {
		t.Fatal("closing one mapping corrupted another")
	}
	m2.Close()
}

// TestOpenMappedDisabledFallsBack: a store that must not map — a
// bandwidth throttle turns mapping off, since a mapping would bypass the
// pacing — gets a private copy equal to ReadAll's bytes, and lifting the
// throttle maps again wherever the platform can.
func TestOpenMappedDisabledFallsBack(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id, _, _, err := s.SaveBytes([]byte("plain"))
	if err != nil {
		t.Fatal(err)
	}
	s.SetBandwidth(1 << 40)
	m, err := s.OpenMapped(id)
	if err != nil {
		t.Fatal(err)
	}
	if m.Mapped() {
		t.Fatal("mapping created while mapping was off")
	}
	want, err := s.ReadAll(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.Bytes(), want) {
		t.Fatal("fallback bytes differ")
	}
	m.Close()

	s.SetBandwidth(0)
	m, err = s.OpenMapped(id)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Mapped() != MmapEnabled() {
		t.Fatalf("Mapped() = %v after lifting the throttle, MmapEnabled() = %v", m.Mapped(), MmapEnabled())
	}
}

func TestOpenMappedMissing(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.OpenMapped("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestOpenMappedEmptyBlob(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	id, _, _, err := s.SaveBytes(nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.OpenMapped(id)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if len(m.Bytes()) != 0 {
		t.Fatalf("empty blob mapped to %d bytes", len(m.Bytes()))
	}
}

func TestOpenMappedThrottledUsesReadPath(t *testing.T) {
	// A bandwidth-limited store must keep its throttle semantics: mmap
	// would bypass the pacing entirely, so OpenMapped reads instead.
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.SetBandwidth(1 << 30)
	blob := []byte("throttled")
	id, _, _, err := s.SaveBytes(blob)
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.OpenMapped(id)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Mapped() {
		t.Fatal("throttled store must not hand out mappings")
	}
	if !bytes.Equal(m.Bytes(), blob) {
		t.Fatal("throttled read differs")
	}
}
