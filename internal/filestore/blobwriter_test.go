package filestore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// pieceSource writes content in Writes of piece bytes, or in one Write
// when piece is 0, with an empty Write before each, like a serializer
// flushing an empty buffer. failAt > 0 stops it with errPieceTorn once
// that many bytes are written.
type pieceSource struct {
	content []byte
	piece   int
	failAt  int
}

var errPieceTorn = errors.New("source torn")

func (s pieceSource) WriteTo(w io.Writer) (int64, error) {
	piece := s.piece
	if piece == 0 {
		piece = len(s.content)
	}
	var n int64
	for rest := s.content; len(rest) > 0; {
		c := rest[:min(len(rest), piece)]
		if s.failAt > 0 && n+int64(len(c)) > int64(s.failAt) {
			m, _ := w.Write(c[:int64(s.failAt)-n])
			return n + int64(m), errPieceTorn
		}
		if _, err := w.Write(nil); err != nil {
			return n, err
		}
		m, err := w.Write(c)
		n += int64(m)
		if err != nil {
			return n, err
		}
		rest = rest[len(c):]
	}
	return n, nil
}

func (pieceSource) Read([]byte) (int, error) { return 0, errors.New("read a WriterTo source") }

// waitGoroutines fails t unless the goroutine count falls back to before
// within a second: a joined goroutine may still be on its way out.
func waitGoroutines(t *testing.T, what string, before int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines before, %d after", what, before, runtime.NumGoroutine())
		}
	}
}

func tempFilesIn(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			out = append(out, e.Name())
		}
	}
	return out
}

// Property: whatever sizes a blob and the pieces of its Writes have — on
// either side of writeQuantum, where Write starts hashing on a second
// goroutine — SaveAs stores exactly the source's bytes and returns their
// length and SHA-256, throttled or not.
func TestSaveAsPieceSizesProperty(t *testing.T) {
	sizes := []int{0, 1, writeQuantum - 1, writeQuantum, writeQuantum + 1, 3<<20 + 5}
	for _, bps := range []int64{0, 1 << 32} {
		s := newStore(t)
		s.SetBandwidth(bps)
		for _, size := range sizes {
			content := make([]byte, size)
			for i := range content {
				content[i] = byte(i*31 + i>>9)
			}
			sum := sha256.Sum256(content)
			for _, piece := range sizes {
				// One-byte pieces of a large blob are a syscall each: keep
				// the table fast.
				if piece > 0 && size/piece > 1<<16 || bps > 0 && piece > 0 && size/piece > 1<<10 {
					continue
				}
				before := runtime.NumGoroutine()
				id := NewID()
				n, hash, err := s.SaveAs(id, pieceSource{content: content, piece: piece})
				if err != nil {
					t.Fatal(err)
				}
				if n != int64(size) || hash != hex.EncodeToString(sum[:]) {
					t.Fatalf("bps %d, size %d, piece %d: stored %d bytes hashing %s, want %d and %x", bps, size, piece, n, hash, size, sum)
				}
				got, err := s.ReadAll(id)
				if err != nil || !bytes.Equal(got, content) {
					t.Fatalf("bps %d, size %d, piece %d: stored bytes differ (err %v)", bps, size, piece, err)
				}
				waitGoroutines(t, "SaveAs", before)
			}
		}
	}
}

// A source that fails part-way through a large piece fails SaveAs with its
// error and leaves no blob, no temp file and no goroutine.
func TestSaveAsSourceFailingInLargePiece(t *testing.T) {
	content := make([]byte, 3<<20)
	for _, bps := range []int64{0, 1 << 32} {
		s := newStore(t)
		s.SetBandwidth(bps)
		before := runtime.NumGoroutine()
		id := NewID()
		_, _, err := s.SaveAs(id, pieceSource{content: content, piece: 1 << 20, failAt: 1<<20 + 5*writeQuantum + 3})
		if !errors.Is(err, errPieceTorn) {
			t.Fatalf("bps %d: SaveAs error %v, want the source's", bps, err)
		}
		if s.Exists(id) {
			t.Fatalf("bps %d: a blob exists after its source failed", bps)
		}
		if left := tempFilesIn(t, s.Root()); len(left) != 0 {
			t.Fatalf("bps %d: temp files left behind: %v", bps, left)
		}
		waitGoroutines(t, "failed SaveAs", before)
	}
}

// When write(2) fails part-way through a large piece, Write returns the
// error and the bytes the file took, and only after the hash goroutine has
// finished with the piece.
func TestBlobWriterFailingFileInLargePiece(t *testing.T) {
	r, f, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const took = 5*writeQuantum + 3
	read := make(chan error, 1)
	go func() {
		_, err := io.CopyN(io.Discard, r, took)
		read <- err
		r.Close() // every later write(2) fails with EPIPE
	}()
	before := runtime.NumGoroutine()
	w := &blobWriter{f: f, h: sha256.New(), l: &link{}}
	p := make([]byte, 3<<20)
	n, err := w.Write(p)
	if err == nil || n < took || n >= len(p) {
		t.Fatalf("Write = %d, %v; want an error after at least %d of %d bytes", n, err, took, len(p))
	}
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, "failed Write", before)
}
