package nn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/tensor"
)

// digestTestDict mixes tensors the serializer's 64 KB buffer absorbs with
// ones larger than it, which reach the writer straight from tensor memory.
func digestTestDict() *StateDict {
	rng := tensor.NewRNG(3)
	sd := NewStateDict()
	sd.Set("conv.weight", tensor.Uniform(rng, -1, 1, 64, 32, 3, 3))
	sd.Set("conv.bias", tensor.Uniform(rng, -1, 1, 64))
	sd.Set("bn.num_batches", tensor.Scalar(7))
	sd.Set("empty", tensor.Zeros(0))
	sd.Set("fc.weight", tensor.Uniform(rng, -1, 1, 300, 301))
	sd.Set("fc.bias", tensor.Uniform(rng, -1, 1, 300))
	return sd
}

func entryTensors(sd *StateDict) []*tensor.Tensor {
	ts := make([]*tensor.Tensor, sd.Len())
	for i, e := range sd.Entries() {
		ts[i] = e.Tensor
	}
	return ts
}

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

// WriteToWithDigests writes exactly WriteTo's stream and leaves exactly
// DigestAll's digests in the cache, for any worker count; with the cache
// already filled it writes the same stream and digests nothing.
func TestWriteToWithDigestsMatchesWriteToAndDigestAll(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, w := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(w)
		sd := digestTestDict()
		var plain, digested bytes.Buffer
		if _, err := sd.WriteTo(&plain); err != nil {
			t.Fatal(err)
		}
		if sd.digests != nil {
			t.Fatal("WriteTo filled the digest cache")
		}
		n, err := sd.WriteToWithDigests(&digested)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(plain.Bytes(), digested.Bytes()) || n != int64(digested.Len()) {
			t.Fatalf("workers=%d: WriteToWithDigests wrote %d bytes (reported %d) that differ from WriteTo's %d", w, digested.Len(), n, plain.Len())
		}
		want := tensor.DigestAll(entryTensors(sd))
		if len(sd.digests) != len(want) {
			t.Fatalf("workers=%d: %d cached digests, want %d", w, len(sd.digests), len(want))
		}
		for i := range want {
			if sd.digests[i] != want[i] {
				t.Errorf("workers=%d: cached digest of %q differs from DigestAll's", w, sd.Entries()[i].Key)
			}
		}
		before := tensor.DigestOps()
		var again bytes.Buffer
		if _, err := sd.WriteToWithDigests(&again); err != nil {
			t.Fatal(err)
		}
		if ops := tensor.DigestOps() - before; ops != 0 || !bytes.Equal(again.Bytes(), plain.Bytes()) {
			t.Fatalf("workers=%d: a second WriteToWithDigests digested %d tensors or wrote other bytes", w, ops)
		}
	}
}

type limitWriter struct{ limit, n int }

var errWriterFull = errors.New("writer full")

func (w *limitWriter) Write(p []byte) (int, error) {
	if w.n+len(p) > w.limit {
		m := w.limit - w.n
		w.n = w.limit
		return m, errWriterFull
	}
	w.n += len(p)
	return len(p), nil
}

// A writer that fails after N bytes fails WriteToWithDigests with its
// error, leaves no digest cache and no goroutine behind.
func TestWriteToWithDigestsFailingWriter(t *testing.T) {
	size := int(digestTestDict().SerializedSize())
	for _, limit := range []int{0, 9, 1 << 16, 1<<16 + 1, size / 2, size - 1} {
		sd := digestTestDict()
		before := runtime.NumGoroutine()
		w := &limitWriter{limit: limit}
		if _, err := sd.WriteToWithDigests(w); !errors.Is(err, errWriterFull) {
			t.Fatalf("limit %d: error %v, want the writer's", limit, err)
		}
		if sd.digests != nil {
			t.Fatalf("limit %d: a failed write left a digest cache", limit)
		}
		waitGoroutines(t, "failed WriteToWithDigests", before)
	}
}

// stateDictHeader is the 10-byte head of a serialized dict.
func stateDictHeader(version uint16, count uint32) []byte {
	b := binary.LittleEndian.AppendUint32(nil, sdMagic)
	b = binary.LittleEndian.AppendUint16(b, version)
	return binary.LittleEndian.AppendUint32(b, count)
}

// A header whose count no remaining bytes could hold is rejected, naming
// the count, before it sizes anything by it: a count of 0x7fffffff once
// allocated tens of GB and killed the process.
func TestReadStateDictRejectsImpossibleCount(t *testing.T) {
	decoders := map[string]func([]byte) (*StateDict, error){
		"ReadStateDictBytes":  ReadStateDictBytes,
		"ReadStateDictMapped": func(b []byte) (*StateDict, error) { return ReadStateDictMapped(b, b) },
	}
	for _, version := range []uint16{1, sdVersion} {
		b := stateDictHeader(version, 0x7fffffff)
		for name, decode := range decoders {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := decode(b)
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), "2147483647") {
				t.Errorf("v%d %s: error %v, want one naming the count", version, name, err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
				t.Errorf("v%d %s: allocated %d bytes rejecting a 10-byte blob", version, name, alloc)
			}
		}
	}
	// The bound still admits every real dict, including an empty one.
	if sd, err := ReadStateDictBytes(stateDictHeader(sdVersion, 0)); err != nil || sd.Len() != 0 {
		t.Fatalf("empty dict: %v", err)
	}
}
