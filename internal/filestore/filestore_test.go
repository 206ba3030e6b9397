package filestore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func newStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSaveAndReadBack(t *testing.T) {
	s := newStore(t)
	content := []byte("serialized model parameters")
	id, size, hash, err := s.SaveBytes(content)
	if err != nil {
		t.Fatal(err)
	}
	if size != int64(len(content)) {
		t.Fatalf("size = %d, want %d", size, len(content))
	}
	want := sha256.Sum256(content)
	if hash != hex.EncodeToString(want[:]) {
		t.Fatalf("hash mismatch: %s", hash)
	}
	got, err := s.ReadAll(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatalf("content mismatch: %q", got)
	}
	gotSize, err := s.Size(id)
	if err != nil || gotSize != size {
		t.Fatalf("Size = %d, %v", gotSize, err)
	}
	gotHash, err := s.Hash(id)
	if err != nil || gotHash != hash {
		t.Fatalf("Hash = %s, %v", gotHash, err)
	}
	if !s.Exists(id) {
		t.Fatal("Exists = false for stored blob")
	}
}

func TestSaveAsOverwrites(t *testing.T) {
	s := newStore(t)
	id := NewID()
	if _, _, err := s.SaveAs(id, strings.NewReader("v1")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.SaveAs(id, strings.NewReader("v2-longer")); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadAll(id)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v2-longer" {
		t.Fatalf("content = %q", got)
	}
}

func TestMissingBlob(t *testing.T) {
	s := newStore(t)
	if _, err := s.Open(NewID()); err != ErrNotFound {
		t.Fatalf("Open missing: %v", err)
	}
	if _, err := s.Size(NewID()); err != ErrNotFound {
		t.Fatalf("Size missing: %v", err)
	}
	if err := s.Delete(NewID()); err != ErrNotFound {
		t.Fatalf("Delete missing: %v", err)
	}
	if s.Exists(NewID()) {
		t.Fatal("Exists = true for missing blob")
	}
}

func TestDelete(t *testing.T) {
	s := newStore(t)
	id, _, _, err := s.SaveBytes([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(id); err != nil {
		t.Fatal(err)
	}
	if s.Exists(id) {
		t.Fatal("blob still exists after Delete")
	}
}

func TestInvalidIDs(t *testing.T) {
	s := newStore(t)
	for _, id := range []string{"", "../x", "a/b", "a.b"} {
		if _, _, err := s.SaveAs(id, strings.NewReader("x")); err == nil {
			t.Fatalf("SaveAs accepted invalid id %q", id)
		}
		if _, err := s.Open(id); err == nil || err == ErrNotFound {
			t.Fatalf("Open(%q) err = %v, want validation error", id, err)
		}
	}
}

func TestStats(t *testing.T) {
	s := newStore(t)
	st, err := s.Stats()
	if err != nil || st.Blobs != 0 || st.SizeBytes != 0 {
		t.Fatalf("empty Stats = %+v, %v", st, err)
	}
	s.SaveBytes(make([]byte, 100))
	s.SaveBytes(make([]byte, 250))
	st, err = s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Blobs != 2 || st.SizeBytes != 350 {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	id, _, _, err := s.SaveBytes([]byte("durable"))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.ReadAll(id)
	if err != nil || string(got) != "durable" {
		t.Fatalf("reopen: %q, %v", got, err)
	}
}

func TestStoreBandwidthAppliesToReads(t *testing.T) {
	s := newStore(t)
	id, _, _, err := s.SaveBytes(make([]byte, 32<<10))
	if err != nil {
		t.Fatal(err)
	}
	s.SetBandwidth(128 << 10)
	start := time.Now()
	rc, err := s.Open(id)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, rc)
	rc.Close()
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Fatalf("bandwidth limit not applied: %v", elapsed)
	}
	s.SetBandwidth(0)
	start = time.Now()
	if _, err := s.ReadAll(id); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("unthrottled read too slow: %v", elapsed)
	}
}

// TestConcurrentSaveAsSameID races many writers onto one blob identifier.
// With the old fixed `path+".tmp"` staging name, two concurrent saves
// interleaved bytes into one temp file and committed a chimera; with
// unique temp names, the final blob must be exactly one writer's payload.
func TestConcurrentSaveAsSameID(t *testing.T) {
	s := newStore(t)
	const writers = 8
	const rounds = 10
	payload := func(w int) []byte {
		// Distinct sizes catch interleavings as well as content mixes.
		return bytes.Repeat([]byte{byte('A' + w)}, 4096+w*512)
	}
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		errs := make(chan error, writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if _, _, err := s.SaveAs("shared", bytes.NewReader(payload(w))); err != nil {
					errs <- err
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		got, err := s.ReadAll("shared")
		if err != nil {
			t.Fatal(err)
		}
		ok := false
		for w := 0; w < writers; w++ {
			if bytes.Equal(got, payload(w)) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("round %d: committed blob (%d bytes) matches no writer's payload — saves interleaved", round, len(got))
		}
	}
	// No temp litter: every staged file was renamed or removed.
	entries, err := os.ReadDir(s.Root())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "shared" {
			t.Fatalf("leftover file %q in store root", e.Name())
		}
	}
}

// Property: any byte content round-trips through the store unchanged.
func TestRoundTripProperty(t *testing.T) {
	s := newStore(t)
	f := func(content []byte) bool {
		id, size, _, err := s.SaveBytes(content)
		if err != nil || size != int64(len(content)) {
			return false
		}
		got, err := s.ReadAll(id)
		if err != nil {
			return false
		}
		return bytes.Equal(got, content)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
