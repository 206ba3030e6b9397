package tensor

import (
	"bytes"
	"encoding/binary"
	"testing"
	"unsafe"
)

// buildFrames serializes the given tensors back to back and returns the
// buffer plus each frame's starting offset.
func buildFrames(t *testing.T, ts ...*Tensor) ([]byte, []int) {
	t.Helper()
	var buf bytes.Buffer
	offs := make([]int, len(ts))
	for i, tt := range ts {
		offs[i] = buf.Len()
		if _, err := tt.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes(), offs
}

func TestAliasFramesMatchesDecodeFrames(t *testing.T) {
	rng := NewRNG(3)
	a := Normal(rng, 0, 1, 7, 5)
	b := Normal(rng, 0, 1, 16)
	c := New([]float32{1, 2, 3, 4}, 2, 2)
	buf, offs := buildFrames(t, a, b, c)

	decoded, err := DecodeFrames(buf, offs)
	if err != nil {
		t.Fatal(err)
	}
	aliased, err := AliasFrames(buf, offs, buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range decoded {
		if !decoded[i].Equal(aliased[i]) {
			t.Fatalf("frame %d: aliased decode differs from copied decode", i)
		}
	}
}

func TestAliasFramesZeroCopyAndRef(t *testing.T) {
	// Frame layout: 8-byte header + 4 bytes per dim, so a frame starting
	// at a 4-byte-aligned offset has 4-byte-aligned float data. buildFrames
	// starts at offset 0 and every frame length is a multiple of 4, so on
	// little-endian platforms every frame must alias.
	x := New([]float32{1, 2, 3}, 3)
	y := New([]float32{4, 5}, 2)
	buf, offs := buildFrames(t, x, y)

	before := AliasedFrames()
	ref := &struct{ tag string }{"mapping"}
	ts, err := AliasFrames(buf, offs, ref)
	if err != nil {
		t.Fatal(err)
	}
	delta := AliasedFrames() - before
	if !canAliasFloats {
		if delta != 0 {
			t.Fatalf("fallback platform aliased %d frames", delta)
		}
		return
	}
	if delta != 2 {
		t.Fatalf("aliased %d frames, want 2", delta)
	}
	for i, tt := range ts {
		if tt.ref == nil {
			t.Fatalf("tensor %d not marked aliased", i)
		}
	}
	// The data genuinely aliases the buffer: a write through the buffer is
	// visible through the tensor (test-only — callers promise immutability).
	buf[offs[0]+12] = 0xff // perturb low byte of x[0] (header is 8+4 bytes)
	if ts[0].Data()[0] == 1 {
		t.Fatal("tensor data does not alias the source buffer")
	}
	// Reshape must keep the backing reference pinned.
	if ts[0].Reshape(3, 1).ref == nil {
		t.Fatal("reshape dropped the alias ref")
	}
}

func TestAliasFramesMisalignedFallsBack(t *testing.T) {
	x := New([]float32{1, 2, 3, 4}, 4)
	buf, offs := buildFrames(t, x)
	// Shift the whole buffer by one byte: the frame still parses (offsets
	// adjusted) but its float data is no longer 4-byte aligned, so aliasing
	// must fall back to the copying decode and still be correct.
	shifted := append(make([]byte, 0, len(buf)+1), 0)
	shifted = append(shifted, buf...)
	for i := range offs {
		offs[i]++
	}
	before := AliasedFrames()
	ts, err := AliasFrames(shifted, offs, shifted)
	if err != nil {
		t.Fatal(err)
	}
	// Alignment is a runtime property of the allocation; accept either
	// outcome for the counter but require correctness and, when the slice
	// really is misaligned, no aliasing.
	if uintptr(unsafe.Pointer(&shifted[1]))%4 != 0 {
		if AliasedFrames() != before {
			t.Fatal("misaligned frame must not alias")
		}
		if ts[0].ref != nil {
			t.Fatal("misaligned tensor marked aliased")
		}
	}
	if !ts[0].Equal(x) {
		t.Fatal("fallback decode incorrect")
	}
}

func TestAliasFramesRejectsCorruptFrame(t *testing.T) {
	x := New([]float32{1, 2}, 2)
	buf, offs := buildFrames(t, x)
	buf[0] ^= 0xff // break the magic
	if _, err := AliasFrames(buf, offs, buf); err == nil {
		t.Fatal("expected error for corrupt frame")
	}
}

// A frame whose dims multiply past the range of int is rejected by every
// decoder. Dims of 65536, 65536, 65536, 65536 wrap to 0 under Prod, so a
// 24-byte frame with no data would otherwise decode as a tensor whose
// shape claims 2^64 values.
func TestFrameDimsOverflowRejected(t *testing.T) {
	b := binary.LittleEndian.AppendUint32(nil, magic)
	b = binary.LittleEndian.AppendUint16(b, formatVersion)
	b = binary.LittleEndian.AppendUint16(b, 4)
	for range 4 {
		b = binary.LittleEndian.AppendUint32(b, 1<<16)
	}
	offs := []int{0}
	if _, err := ScanFrame(b, 0); err == nil {
		t.Error("ScanFrame accepted the frame")
	}
	if x, _, err := ReadFromBytes(b, 0); err == nil {
		t.Errorf("ReadFromBytes accepted the frame: shape %v, %d values", x.Shape(), x.Len())
	}
	if _, err := DecodeFrames(b, offs); err == nil {
		t.Error("DecodeFrames accepted the frame")
	}
	if _, err := AliasFrames(b, offs, b); err == nil {
		t.Error("AliasFrames accepted the frame")
	}
	// A zero dim still makes an empty tensor, however large the others.
	zero := binary.LittleEndian.AppendUint32(b[:8:8], 0)
	zero = binary.LittleEndian.AppendUint32(zero, 1<<16)
	binary.LittleEndian.PutUint16(zero[6:8], 2)
	if x, _, err := ReadFromBytes(zero, 0); err != nil || x.Len() != 0 {
		t.Errorf("a frame with a zero dim: %v", err)
	}
}
