package nn

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"testing"
)

// framesHashReference computes the frames hash by its definition, the
// slow way: the decoded dict says where each frame's data lies in b (a
// blob WriteTo wrote, pad bytes and all), that region is replaced by the
// tensor's Digest, and the result goes through SHA-256 in one piece.
func framesHashReference(t *testing.T, b []byte) string {
	t.Helper()
	sd, err := ReadStateDictBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	version := binary.LittleEndian.Uint16(b[4:6])
	var stream bytes.Buffer
	off, stored := 10, 0
	for _, e := range sd.Entries() {
		off += 2 + len(e.Key)
		if version >= 2 {
			off += 1 + int(b[off])
		}
		dataOff := off + 8 + 4*len(e.Tensor.Shape())
		stream.Write(b[stored:dataOff])
		d := e.Tensor.Digest()
		stream.Write(d[:])
		off = dataOff + 4*e.Tensor.Len()
		stored = off
	}
	stream.Write(b[stored:])
	sum := sha256.Sum256(stream.Bytes())
	return hex.EncodeToString(sum[:])
}

// The save side and the audit side of the frames hash agree with the
// definition for every worker count, with the digest cache a save fills
// and without one; a blob whose frames move in memory (a copy at an odd
// offset) audits the same.
func TestFramesHashMatchesItsDefinition(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, w := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(w)
		sd := digestTestDict()
		fresh, err := sd.FramesHash()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := sd.WriteToWithDigests(&buf); err != nil {
			t.Fatal(err)
		}
		saved, err := sd.FramesHash()
		if err != nil {
			t.Fatal(err)
		}
		audited, err := AuditFramesHash(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		odd := append([]byte{0}, buf.Bytes()...)[1:]
		moved, err := AuditFramesHash(odd)
		if err != nil {
			t.Fatal(err)
		}
		want := framesHashReference(t, buf.Bytes())
		if fresh != want || saved != want || audited != want || moved != want {
			t.Fatalf("workers=%d: fresh %s, saved %s, audited %s, moved %s; definition %s", w, fresh, saved, audited, moved, want)
		}
		if sum := sha256.Sum256(buf.Bytes()); hex.EncodeToString(sum[:]) == want {
			t.Fatal("the frames hash is the SHA-256 of the file")
		}
	}
}

// Every blob of the state-dict corpus that decodes — version 1 and 2 —
// audits as its definition; every one that does not is an audit error.
func TestAuditFramesHashOverCorpus(t *testing.T) {
	for name, b := range stateDictCorpus(t) {
		got, err := AuditFramesHash(b)
		if _, decodeErr := ReadStateDictBytes(b); decodeErr != nil {
			if err == nil {
				t.Errorf("%s: audited as %s, but it does not decode: %v", name, got, decodeErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if want := framesHashReference(t, b); got != want {
			t.Errorf("%s: audited as %s, definition %s", name, got, want)
		}
	}
}

// Bytes after the last frame are part of the blob, so they enter the hash.
func TestAuditFramesHashCountsTrailingBytes(t *testing.T) {
	var buf bytes.Buffer
	if _, err := digestTestDict().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	clean, err := AuditFramesHash(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	tail, err := AuditFramesHash(append(buf.Bytes(), 0))
	if err != nil {
		t.Fatal(err)
	}
	if tail == clean {
		t.Fatal("a trailing byte left the frames hash unchanged")
	}
}
