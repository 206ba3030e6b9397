package nn

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/tensor"
)

func sealTestDict() *StateDict {
	sd := NewStateDict()
	sd.Set("a.weight", tensor.New([]float32{1, 2, 3, 4}, 2, 2))
	sd.Set("a.bias", tensor.New([]float32{5, 6}, 2))
	sd.Set("b.weight", tensor.New([]float32{7, 8, 9}, 3))
	return sd
}

// mustPanicSet runs sd.Set and fails t unless it panics with a message
// that names Clone().
func mustPanicSet(t *testing.T, sd *StateDict, key string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("Set(%q) on a sealed dict did not panic", key)
		}
		if msg, _ := r.(string); !strings.Contains(msg, "Clone()") {
			t.Fatalf("Set panic %q does not name Clone()", r)
		}
	}()
	sd.Set(key, tensor.New([]float32{9, 9, 9, 9}, 2, 2))
}

func TestSealedDictIsReadOnly(t *testing.T) {
	owner := sealTestDict()
	orig := owner.Clone()
	want := owner.Hash()
	owner.Seal()
	if !owner.Sealed() {
		t.Fatal("Seal did not seal")
	}
	// Replacing an entry and adding one both panic, and neither reaches
	// the dict.
	mustPanicSet(t, owner, "a.weight")
	mustPanicSet(t, owner, "c.weight")
	if owner.Len() != orig.Len() || !owner.Equal(orig) {
		t.Fatal("a panicking Set changed the sealed dict")
	}
	if owner.Hash() != want || owner.HashFresh() != want {
		t.Fatal("a panicking Set changed the sealed dict's hash")
	}

	// A dict decoded over retained bytes is born sealed, so it is
	// read-only too.
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	mapped, err := ReadStateDictMapped(buf.Bytes(), buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	mustPanicSet(t, mapped, "a.weight")
	if mapped.Hash() != want {
		t.Fatal("a panicking Set changed the mapped dict's hash")
	}

	// Clone is the way to edit: the copy is unsealed and writable, and
	// writing it leaves the sealed owner untouched.
	c := owner.Clone()
	if c.Sealed() {
		t.Fatal("Clone of a sealed dict must be unsealed")
	}
	c.Set("a.weight", tensor.New([]float32{9, 9, 9, 9}, 2, 2))
	w, _ := c.Get("a.bias")
	w.Data()[0] = 42
	if c.Hash() == want {
		t.Fatal("writes to the clone were lost")
	}
	if owner.HashFresh() != want || !owner.Equal(orig) {
		t.Fatal("writing a clone reached the sealed owner")
	}
}

func TestSealVersionTokens(t *testing.T) {
	owner := sealTestDict().Seal()
	if owner.Version() != owner {
		t.Fatal("a sealed dict's version must be itself")
	}
	// A clone holds the same contents but is another version.
	if c := owner.Clone(); c.Version() == owner.Version() || c.Version() != c {
		t.Fatal("a clone must be its own version")
	}
	// A fresh unsealed dict is its own version.
	fresh := sealTestDict()
	if fresh.Version() != fresh {
		t.Fatal("unsealed dict must be its own version")
	}
}

func TestSealHashSemantics(t *testing.T) {
	sd := sealTestDict()
	want := sd.Hash()
	sd.Seal()
	if sd.Hash() != want {
		t.Fatal("sealing changed the hash")
	}
	// Out-of-contract direct mutation: the cached digests hide it from
	// Hash, HashFresh sees it. (This is exactly why the Paranoid recovery
	// cache exists.)
	sd.Entries()[0].Tensor.Data()[0] += 1
	if sd.Hash() != want {
		t.Fatal("Hash should still report cached digests")
	}
	if sd.HashFresh() == want {
		t.Fatal("HashFresh must see the raw mutation")
	}
}

func TestReadStateDictMappedMatchesBytes(t *testing.T) {
	sd := sealTestDict()
	var buf bytes.Buffer
	if _, err := sd.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()

	copied, err := ReadStateDictBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := ReadStateDictMapped(b, b)
	if err != nil {
		t.Fatal(err)
	}
	if !mapped.Sealed() {
		t.Fatal("mapped dict must be born sealed")
	}
	if !copied.Equal(sd) || !mapped.Equal(sd) {
		t.Fatal("decode mismatch")
	}
	if copied.Hash() != mapped.Hash() {
		t.Fatal("hash mismatch between copied and mapped decode")
	}
	// The API never writes the backing bytes: Set panics, and a write
	// through a clone's tensor lands in the clone's own copy.
	before := append([]byte(nil), b...)
	mustPanicSet(t, mapped, "a.weight")
	w, ok := mapped.Clone().Get("a.weight")
	if !ok {
		t.Fatal("missing a.weight")
	}
	w.Data()[0] = -1
	if !bytes.Equal(b, before) {
		t.Fatal("writing a mapped dict's clone wrote through to the backing bytes")
	}
}

func TestSerializedSizeExactWithPadding(t *testing.T) {
	// Keys of varying length exercise every pad value 0..3.
	sd := NewStateDict()
	for _, k := range []string{"k", "ke", "key", "key4", "key55"} {
		sd.Set(k, tensor.New([]float32{1, 2}, 2))
	}
	var buf bytes.Buffer
	n, err := sd.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != sd.SerializedSize() {
		t.Fatalf("WriteTo wrote %d bytes, SerializedSize says %d", n, sd.SerializedSize())
	}
	got, err := ReadStateDictBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(sd) {
		t.Fatal("round trip failed")
	}
}

// buildV1StateDict hand-writes the version-1 layout (no key padding) to
// prove old blobs stay readable.
func buildV1StateDict(t *testing.T, sd *StateDict) []byte {
	t.Helper()
	var buf bytes.Buffer
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], sdMagic)
	buf.Write(b4[:])
	binary.LittleEndian.PutUint16(b4[:2], 1)
	buf.Write(b4[:2])
	binary.LittleEndian.PutUint32(b4[:], uint32(sd.Len()))
	buf.Write(b4[:])
	for _, e := range sd.Entries() {
		binary.LittleEndian.PutUint16(b4[:2], uint16(len(e.Key)))
		buf.Write(b4[:2])
		buf.WriteString(e.Key)
		if _, err := e.Tensor.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestReadStateDictVersion1Compat(t *testing.T) {
	sd := sealTestDict()
	v1 := buildV1StateDict(t, sd)
	got, err := ReadStateDictBytes(v1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(sd) {
		t.Fatal("v1 decode mismatch")
	}
	// The mapped reader accepts v1 too; misaligned frames just fall back
	// to the copying decode.
	mapped, err := ReadStateDictMapped(v1, v1)
	if err != nil {
		t.Fatal(err)
	}
	if !mapped.Equal(sd) {
		t.Fatal("v1 mapped decode mismatch")
	}
	if got.Hash() != sd.Hash() || mapped.Hash() != sd.Hash() {
		t.Fatal("v1 hash mismatch")
	}
}
