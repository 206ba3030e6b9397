package filestore_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/filestore"
	"repro/internal/shard"
)

// The SaveAs consumption contract (see filestore.Blobs), checked against
// every Blobs in the repository.

// blobsUnderTest is one Blobs and the directories it keeps files in.
type blobsUnderTest struct {
	name  string
	blobs filestore.Blobs
	dirs  []string
}

func everyBlobs(t *testing.T) []blobsUnderTest {
	t.Helper()
	open := func() (*filestore.Store, string) {
		dir := t.TempDir()
		s, err := filestore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		return s, dir
	}
	plain, plainDir := open()
	paced, pacedDir := open()
	paced.SetBandwidth(64 << 20) // fast enough not to slow the table down
	a, aDir := open()
	b, bDir := open()
	ring, err := shard.NewRing(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := shard.NewFiles(ring, a, b)
	if err != nil {
		t.Fatal(err)
	}
	return []blobsUnderTest{
		{"store", plain, []string{plainDir}},
		{"store+bandwidth", paced, []string{pacedDir}},
		{"shard.Files", sharded, []string{aDir, bDir}},
	}
}

// tempFiles lists the *.tmp files left in dirs.
func tempFiles(t *testing.T, dirs []string) []string {
	t.Helper()
	var out []string
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if strings.HasSuffix(e.Name(), ".tmp") {
				out = append(out, filepath.Join(dir, e.Name()))
			}
		}
	}
	return out
}

// writerToOnly is a save source that may only be consumed through WriteTo.
type writerToOnly struct {
	t       *testing.T
	content []byte
	// failAt > 0 makes WriteTo stop with errTorn after that many bytes.
	failAt int
}

var errTorn = errors.New("source torn")

func (s *writerToOnly) Read([]byte) (int, error) {
	s.t.Error("SaveAs called Read on a source that implements io.WriterTo")
	return 0, io.ErrUnexpectedEOF
}

func (s *writerToOnly) WriteTo(w io.Writer) (int64, error) {
	// Several writes of odd sizes, like a serializer's.
	var n int64
	for rest := s.content; len(rest) > 0; {
		c := rest[:min(len(rest), 3001)]
		if s.failAt > 0 && n+int64(len(c)) > int64(s.failAt) {
			return n, errTorn
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

func testContent(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i>>8)
	}
	return b
}

func TestSaveAsConsumesSourceThroughWriteTo(t *testing.T) {
	content := testContent(100_000)
	sum := sha256.Sum256(content)
	for _, c := range everyBlobs(t) {
		t.Run(c.name, func(t *testing.T) {
			refSize, refHash, err := c.blobs.SaveAs(filestore.NewID(), bytes.NewReader(content))
			if err != nil {
				t.Fatal(err)
			}
			id := filestore.NewID()
			size, hash, err := c.blobs.SaveAs(id, &writerToOnly{t: t, content: content})
			if err != nil {
				t.Fatal(err)
			}
			if size != refSize || hash != refHash || hash != hex.EncodeToString(sum[:]) {
				t.Fatalf("WriteTo source stored %d bytes / %s, a bytes.Reader of the same bytes %d / %s", size, hash, refSize, refHash)
			}
			got, err := c.blobs.ReadAll(id)
			if err != nil || !bytes.Equal(got, content) {
				t.Fatalf("stored content differs (err %v)", err)
			}
			if left := tempFiles(t, c.dirs); len(left) != 0 {
				t.Fatalf("temp files left behind: %v", left)
			}
		})
	}
}

func TestSaveAsFailingSourceStoresNothing(t *testing.T) {
	content := testContent(100_000)
	for _, c := range everyBlobs(t) {
		t.Run(c.name, func(t *testing.T) {
			id := filestore.NewID()
			_, _, err := c.blobs.SaveAs(id, &writerToOnly{t: t, content: content, failAt: len(content) / 2})
			if !errors.Is(err, errTorn) {
				t.Fatalf("SaveAs error = %v, want the source's", err)
			}
			if c.blobs.Exists(id) {
				t.Fatal("a blob exists after its source failed")
			}
			if ids, err := c.blobs.List(); err != nil || len(ids) != 0 {
				t.Fatalf("List = %v, %v; want nothing", ids, err)
			}
			if left := tempFiles(t, c.dirs); len(left) != 0 {
				t.Fatalf("temp files left behind: %v", left)
			}
		})
	}
}

// A throttled save is paced on the writer side: one takes bytes / rate, and
// two at once share the store's link, so together they take total bytes /
// rate — not half of it (each paced alone) and not twice (charged twice).
func TestStoreBandwidthAppliesToSaves(t *testing.T) {
	const size, rate = 64 << 10, 256 << 10 // 250 ms per blob
	per := time.Duration(float64(size) / rate * float64(time.Second))
	content := testContent(size)
	s, err := filestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.SetBandwidth(rate)
	within := func(what string, got, want time.Duration) {
		t.Helper()
		if got < want*8/10 || got > want*17/10 {
			t.Errorf("%s took %v, want about %v", what, got, want)
		}
	}

	start := time.Now()
	if _, _, err := s.SaveAs(filestore.NewID(), &writerToOnly{t: t, content: content}); err != nil {
		t.Fatal(err)
	}
	within("one throttled save", time.Since(start), per)

	start = time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := s.SaveAs(filestore.NewID(), bytes.NewReader(content)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	within("two concurrent throttled saves", time.Since(start), 2*per)
}

// readerOnly hides every method of r but Read, like a Blobs outside this
// repository that does not look for io.WriterTo.
type readerOnly struct{ r io.Reader }

func (o readerOnly) Read(p []byte) (int, error) { return o.r.Read(p) }

func TestSourceReadServesTheBytesWriteToWrites(t *testing.T) {
	content := testContent(100_000)
	calls := 0
	write := func(w io.Writer) (int64, error) {
		calls++
		return (&writerToOnly{t: t, content: content}).WriteTo(w)
	}

	var direct bytes.Buffer
	if _, err := filestore.Source(write).(io.WriterTo).WriteTo(&direct); err != nil {
		t.Fatal(err)
	}
	calls = 0
	viaRead, err := io.ReadAll(readerOnly{filestore.Source(write)})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaRead, direct.Bytes()) || !bytes.Equal(viaRead, content) {
		t.Fatal("Read served different bytes than WriteTo wrote")
	}
	if calls != 1 {
		t.Fatalf("Read ran the writing function %d times, want once", calls)
	}

	// A consumer that starts with Read and finishes with WriteTo (as
	// bufio.Reader.WriteTo does) still sees every byte once.
	src := filestore.Source(write)
	head := make([]byte, 10)
	if _, err := io.ReadFull(src, head); err != nil {
		t.Fatal(err)
	}
	var rest bytes.Buffer
	if _, err := src.(io.WriterTo).WriteTo(&rest); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(head, rest.Bytes()...), content) {
		t.Fatal("Read then WriteTo lost or repeated bytes")
	}

	// A failing function fails Read with its error, every time.
	torn := filestore.Source((&writerToOnly{t: t, content: content, failAt: 5000}).WriteTo)
	for i := 0; i < 2; i++ {
		if _, err := io.ReadAll(readerOnly{torn}); !errors.Is(err, errTorn) {
			t.Fatalf("Read error = %v, want the writing function's", err)
		}
	}
}
