package tensor

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"testing"
)

// Reference implementations of the serialized form and the content digest,
// written the portable way: every float goes through Float32bits and an
// explicit little-endian store. Digest, WriteTo and WriteToWithDigest feed
// tensor memory to the hash and the writer in place where the byte order
// allows; these are what their bytes must equal on every platform.

func refData(t *Tensor) []byte {
	b := make([]byte, 0, 4*len(t.data))
	for _, v := range t.data {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	return b
}

func refSerialize(t *Tensor) []byte {
	b := binary.LittleEndian.AppendUint32(nil, magic)
	b = binary.LittleEndian.AppendUint16(b, formatVersion)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(t.shape)))
	for _, d := range t.shape {
		b = binary.LittleEndian.AppendUint32(b, uint32(d))
	}
	return append(b, refData(t)...)
}

func refDigest(t *Tensor) [sha256.Size]byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(t.shape)))
	for _, d := range t.shape {
		b = binary.LittleEndian.AppendUint32(b, uint32(d))
	}
	return sha256.Sum256(append(b, refData(t)...))
}

// inPlaceTensors extends digestTensors with the bit patterns a float
// conversion could disturb where a byte view cannot: NaNs with distinct
// payloads (quiet and signalling), negative zero, infinities, denormals —
// and a tensor large enough to span many fused-pass chunks.
func inPlaceTensors() []*Tensor {
	bits := []uint32{
		0x7fc00000, 0x7fc00001, 0xffc12345, 0x7f800001, 0xff9abcde, // NaNs
		0x80000000, 0x00000000, // -0, +0
		0x7f800000, 0xff800000, // ±Inf
		0x00000001, 0x807fffff, // denormals
	}
	special := make([]float32, len(bits))
	for i, b := range bits {
		special[i] = math.Float32frombits(b)
	}
	return append(digestTensors(),
		New(special, len(special)),
		Uniform(NewRNG(11), -1, 1, 37, 4099), // 151,663 values, odd in every way
	)
}

// checkInPlace asserts all three in-place paths against the references.
func checkInPlace(t *testing.T, name string, x *Tensor) {
	t.Helper()
	wantBytes, wantDigest := refSerialize(x), refDigest(x)
	if got := x.Digest(); got != wantDigest {
		t.Errorf("%s: Digest differs from the reference", name)
	}
	var plain bytes.Buffer
	n, err := x.WriteTo(&plain)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), wantBytes) || n != int64(len(wantBytes)) {
		t.Errorf("%s: WriteTo wrote %d bytes that differ from the reference's %d", name, n, len(wantBytes))
	}
	var fused bytes.Buffer
	n, d, err := x.WriteToWithDigest(&fused)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fused.Bytes(), wantBytes) || n != int64(len(wantBytes)) {
		t.Errorf("%s: WriteToWithDigest wrote %d bytes that differ from the reference's %d", name, n, len(wantBytes))
	}
	if d != wantDigest {
		t.Errorf("%s: WriteToWithDigest digest differs from the reference", name)
	}
	if x.SerializedSize() != int64(len(wantBytes)) {
		t.Errorf("%s: SerializedSize %d, reference %d", name, x.SerializedSize(), len(wantBytes))
	}
}

func TestInPlaceMatchesStagingReference(t *testing.T) {
	for _, x := range inPlaceTensors() {
		checkInPlace(t, x.String(), x)
		// A view into the middle of another tensor's storage: the data
		// pointer is 4- but not 8- or 16-aligned.
		if len(x.data) > 2 {
			checkInPlace(t, "offset view of "+x.String(), New(x.data[1:], len(x.data)-1))
		}
	}
}

func TestInPlaceDigestAllAcrossWorkerCounts(t *testing.T) {
	ts := inPlaceTensors()
	prev := Workers()
	defer SetWorkers(prev)
	for _, w := range []int{1, 2, 8} {
		SetWorkers(w)
		for i, d := range DigestAll(ts) {
			if d != refDigest(ts[i]) {
				t.Errorf("workers=%d: digest of %v differs from the reference", w, ts[i])
			}
		}
	}
}

// Tensors whose data aliases serialized bytes (AliasFrames over a blob)
// hash and re-serialize from that aliased memory.
func TestInPlaceOverAliasedFrames(t *testing.T) {
	ts := inPlaceTensors()
	buf, offs := buildFrames(t, ts...)
	aliased, err := AliasFrames(buf, offs, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range aliased {
		if !x.Equal(ts[i]) {
			t.Fatalf("frame %d decoded differently", i)
		}
		checkInPlace(t, "aliased "+x.String(), x)
	}
}

// A failing writer surfaces its error and the bytes it did accept.
func TestInPlaceWriteErrorIsReported(t *testing.T) {
	x := Uniform(NewRNG(5), -1, 1, 3*chunkElems)
	for _, limit := range []int{0, 10, 12 + 4*chunkElems + 5} {
		w := &limitWriter{limit: limit}
		n, err := x.WriteTo(w)
		if err == nil || n != int64(w.n) {
			t.Errorf("WriteTo limit %d: n=%d err=%v, writer took %d", limit, n, err, w.n)
		}
		w = &limitWriter{limit: limit}
		n, _, err = x.WriteToWithDigest(w)
		if err == nil || n != int64(w.n) {
			t.Errorf("WriteToWithDigest limit %d: n=%d err=%v, writer took %d", limit, n, err, w.n)
		}
	}
}

type limitWriter struct{ limit, n int }

func (w *limitWriter) Write(p []byte) (int, error) {
	if w.n+len(p) > w.limit {
		m := w.limit - w.n
		w.n = w.limit
		return m, bytes.ErrTooLarge
	}
	w.n += len(p)
	return len(p), nil
}
