package nn

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/tensor"
)

// StateDict is the ordered mapping from dotted tensor paths to tensors that
// represents a model's complete parameter and buffer state — the structure
// the paper's approaches serialize ("we serialize the model's internal data
// structure that maps each layer to its parameters"), diff, hash, and merge.
type StateDict struct {
	entries []Entry
	index   map[string]int
	// digests caches the per-entry tensor content digests so that one
	// pass serves Hash, LayerHashes, and EntryHashes instead of each
	// re-hashing every tensor; Set drops it. Two paths fill it:
	//   - the save path (PrecomputeDigests, WriteToWithDigests) through
	//     tensor.DigestAllStamped, which re-hashes only the tensors written
	//     since their last save and stamps them — with core's training
	//     record, which takes a trained net's result hash the same way, the
	//     only code that reads or records tensor stamps;
	//   - Seal, through a fresh tensor.DigestAll.
	// Without a cache, Hash, LayerHashes and EntryHashes hash afresh and
	// cache nothing, so they — like HashFresh and a recovery's verify —
	// never depend on a stamp. A cache describes the bytes when it was
	// filled: the save path fills it on the dict of one save, and a sealed
	// dict is never written.
	digests [][sha256.Size]byte
	// sealed marks a read-only dict (see Seal): Set panics on it, so a
	// sealed dict's entries and digest cache never change.
	sealed bool
}

// Entry is one named tensor of a state dict.
type Entry struct {
	Key    string
	Tensor *tensor.Tensor
}

// NewStateDict creates an empty state dict.
func NewStateDict() *StateDict {
	return &StateDict{index: make(map[string]int)}
}

// StateDictOf captures the model's current state: per module, parameters
// then buffers, in deterministic depth-first order. The returned dict
// references the live tensors; use Clone for a snapshot.
func StateDictOf(m Module) *StateDict {
	sd := NewStateDict()
	for _, s := range slotsOf(m) {
		sd.Set(s.key, *s.field)
	}
	return sd
}

// Set appends (or replaces) the entry for key and drops the digest cache.
// A sealed dict is read-only: Set on it panics. Edit a Clone instead.
func (sd *StateDict) Set(key string, t *tensor.Tensor) {
	if sd.sealed {
		panic(fmt.Sprintf("nn: Set(%q) on a sealed state dict; Set on its Clone() instead", key))
	}
	sd.digests = nil
	if i, ok := sd.index[key]; ok {
		sd.entries[i].Tensor = t
		return
	}
	sd.index[key] = len(sd.entries)
	sd.entries = append(sd.entries, Entry{Key: key, Tensor: t})
}

// tensors returns the entry tensors in entry order.
func (sd *StateDict) tensors() []*tensor.Tensor {
	ts := make([]*tensor.Tensor, len(sd.entries))
	for i, e := range sd.entries {
		ts[i] = e.Tensor
	}
	return ts
}

// computeDigests hashes every entry tensor afresh with one parallel pass.
// Results are ordered by entry index, so they are bit-identical for any
// worker count.
func (sd *StateDict) computeDigests() [][sha256.Size]byte {
	return tensor.DigestAll(sd.tensors())
}

// saveDigests is computeDigests for a save: tensors whose stamp is current
// are not re-hashed, and the others are stamped.
func (sd *StateDict) saveDigests() [][sha256.Size]byte {
	return tensor.DigestAllStamped(sd.tensors())
}

// readDigests returns the cached per-entry digests, or computes them fresh
// — without caching — when no cache exists. Not caching by default keeps
// the long-standing contract that mutating a tensor's data is reflected by
// the next Hash call; the save paths opt into the cache explicitly.
func (sd *StateDict) readDigests() [][sha256.Size]byte {
	if sd.digests != nil {
		return sd.digests
	}
	return sd.computeDigests()
}

// PrecomputeDigests fills the per-entry digest cache for a save: one
// parallel pass that re-hashes only the tensors written since their last
// save. Afterwards Hash, LayerHashes, EntryHashes, and WriteToWithDigests
// share the cache instead of each re-hashing every tensor; Set drops the
// cache. The caller promises not to mutate entry tensors for the cache's
// lifetime — the save paths hold that promise trivially because each save
// hashes a freshly captured dict.
func (sd *StateDict) PrecomputeDigests() {
	if sd.digests == nil {
		sd.digests = sd.saveDigests()
	}
}

// Get returns the tensor for key.
func (sd *StateDict) Get(key string) (*tensor.Tensor, bool) {
	i, ok := sd.index[key]
	if !ok {
		return nil, false
	}
	return sd.entries[i].Tensor, true
}

// Len returns the number of entries.
func (sd *StateDict) Len() int { return len(sd.entries) }

// Entries returns the entries in order. The slice must not be mutated.
func (sd *StateDict) Entries() []Entry { return sd.entries }

// Clone returns a deep copy (tensors included, each with its stamp). The
// copy is unsealed, so it is how a caller edits a sealed dict's state.
func (sd *StateDict) Clone() *StateDict {
	out := NewStateDict()
	for _, e := range sd.entries {
		out.Set(e.Key, e.Tensor.Clone())
	}
	return out
}

// NumScalars returns the total number of float32 scalars across all entries.
func (sd *StateDict) NumScalars() int {
	n := 0
	for _, e := range sd.entries {
		n += e.Tensor.Len()
	}
	return n
}

// Equal reports whether both dicts have identical keys in identical order
// with bit-identical tensors — the paper's model-equality criterion applied
// to saved state.
func (sd *StateDict) Equal(o *StateDict) bool {
	if len(sd.entries) != len(o.entries) {
		return false
	}
	for i, e := range sd.entries {
		oe := o.entries[i]
		if e.Key != oe.Key || !e.Tensor.Equal(oe.Tensor) {
			return false
		}
	}
	return true
}

// LoadInto copies the dict's tensors into the model's parameters and
// buffers, with their stamps (tensor.CopyFrom): a net loaded from the
// state of a save digests only what is written after. Every model tensor
// must be present with a matching shape; extra dict entries are an error
// too, so an unexpected mismatch between saved state and architecture code
// fails loudly.
func (sd *StateDict) LoadInto(m Module) error {
	slots := slotsOf(m)
	srcs, err := sd.sources(slots, func(s slot) []int { return (*s.field).Shape() })
	if err != nil {
		return err
	}
	for i, s := range slots {
		(*s.field).CopyFrom(srcs[i])
	}
	return nil
}

// sources returns sd's tensor for each of a net's slots, in slot order,
// under the rules of a load: every slot's key present with the shape
// shape(slot) gives, and no entry without a slot.
func (sd *StateDict) sources(slots []slot, shape func(slot) []int) ([]*tensor.Tensor, error) {
	if len(slots) != len(sd.entries) {
		return nil, fmt.Errorf("nn: state dict has %d entries, model needs %d", len(sd.entries), len(slots))
	}
	srcs := make([]*tensor.Tensor, len(slots))
	for i, s := range slots {
		src, ok := sd.Get(s.key)
		if !ok {
			return nil, fmt.Errorf("nn: state dict missing key %q", s.key)
		}
		if want := shape(s); !slices.Equal(src.Shape(), want) {
			return nil, fmt.Errorf("nn: shape mismatch for %q: %v vs %v", s.key, src.Shape(), want)
		}
		srcs[i] = src
	}
	return srcs, nil
}

// LayerOf returns the layer path of a state-dict key (the key minus its
// final component): "layer1.0.conv1.weight" → "layer1.0.conv1".
func LayerOf(key string) string {
	i := strings.LastIndex(key, ".")
	if i < 0 {
		return ""
	}
	return key[:i]
}

// KeyHash pairs a state-dict key with the hash of its tensor.
type KeyHash struct {
	Key  string `json:"key"`
	Hash string `json:"hash"`
}

// EntryHashes returns the per-entry content hashes in order. The digests
// come from the shared per-dict cache, so calling EntryHashes, LayerHashes,
// and Hash on the same dict costs one pass over tensor bytes in total.
func (sd *StateDict) EntryHashes() []KeyHash {
	digests := sd.readDigests()
	out := make([]KeyHash, len(sd.entries))
	for i, e := range sd.entries {
		out[i] = KeyHash{Key: e.Key, Hash: hex.EncodeToString(digests[i][:])}
	}
	return out
}

// writeEntryHash feeds one "key=hexdigest;" record into h — the per-entry
// byte layout both LayerHashes and Hash are built from. The hex encoding
// goes through a caller-provided stack buffer instead of allocating a
// string per entry.
func writeEntryHash(h io.Writer, key string, digest *[sha256.Size]byte, hexBuf *[2 * sha256.Size]byte) {
	io.WriteString(h, key)
	io.WriteString(h, "=")
	hex.Encode(hexBuf[:], digest[:])
	h.Write(hexBuf[:])
	io.WriteString(h, ";")
}

// LayerHashes returns one hash per layer (leaf module owning tensors), in
// layer order, combining the hashes of all the layer's tensors. These are
// the leaves of the parameter update approach's Merkle tree.
func (sd *StateDict) LayerHashes() []KeyHash {
	digests := sd.readDigests()
	var out []KeyHash
	var curLayer string
	var hexBuf [2 * sha256.Size]byte
	h := sha256.New()
	started := false
	flush := func() {
		if started {
			out = append(out, KeyHash{Key: curLayer, Hash: hex.EncodeToString(h.Sum(nil))})
		}
	}
	for i, e := range sd.entries {
		layer := LayerOf(e.Key)
		if !started || layer != curLayer {
			flush()
			h = sha256.New()
			curLayer = layer
			started = true
		}
		writeEntryHash(h, e.Key, &digests[i], &hexBuf)
	}
	flush()
	return out
}

// Hash returns a single content hash over the whole dict. On a sealed
// dict the cached per-entry digests make this O(entries) instead of a
// pass over all tensor bytes; use HashFresh when the bytes themselves
// must be re-verified.
func (sd *StateDict) Hash() string {
	return sd.hashDigests(sd.readDigests())
}

// hashDigests combines per-entry digests into the dict content hash.
func (sd *StateDict) hashDigests(digests [][sha256.Size]byte) string {
	var hexBuf [2 * sha256.Size]byte
	h := sha256.New()
	for i, e := range sd.entries {
		writeEntryHash(h, e.Key, &digests[i], &hexBuf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// DiffLayers compares two dicts with identical keys and returns the layer
// paths whose tensors differ. It is the naive (hash-free) layer diff the
// Merkle tree accelerates.
func (sd *StateDict) DiffLayers(o *StateDict) ([]string, error) {
	if len(sd.entries) != len(o.entries) {
		return nil, fmt.Errorf("nn: dicts differ in size: %d vs %d", len(sd.entries), len(o.entries))
	}
	changed := map[string]bool{}
	var order []string
	seen := map[string]bool{}
	for i, e := range sd.entries {
		oe := o.entries[i]
		if e.Key != oe.Key {
			return nil, fmt.Errorf("nn: dict keys differ at %d: %q vs %q", i, e.Key, oe.Key)
		}
		layer := LayerOf(e.Key)
		if !seen[layer] {
			seen[layer] = true
			order = append(order, layer)
		}
		if !e.Tensor.Equal(oe.Tensor) {
			changed[layer] = true
		}
	}
	var out []string
	for _, l := range order {
		if changed[l] {
			out = append(out, l)
		}
	}
	return out, nil
}

// SubsetByLayers returns a new dict containing only the entries whose layer
// path is in layers, preserving order. It is the "parameter update" of
// Section 3.2: the pruned state holding just the changed layers.
func (sd *StateDict) SubsetByLayers(layers []string) *StateDict {
	want := make(map[string]bool, len(layers))
	for _, l := range layers {
		want[l] = true
	}
	out := NewStateDict()
	for _, e := range sd.entries {
		if want[LayerOf(e.Key)] {
			out.Set(e.Key, e.Tensor)
		}
	}
	return out
}

// Merge returns base overlaid with update: entries present in update win,
// which is the PUA recovery policy of "prioritizing M's parameter
// information in case of merge conflicts". The result has base's key order.
func Merge(base, update *StateDict) *StateDict {
	out := NewStateDict()
	for _, e := range base.entries {
		if t, ok := update.Get(e.Key); ok {
			out.Set(e.Key, t)
		} else {
			out.Set(e.Key, e.Tensor)
		}
	}
	return out
}

// State-dict binary format (little endian):
//
//	magic   uint32 0x44534d4d ("MMSD")
//	version uint16 2
//	count   uint32
//	count × { keyLen uint16, key bytes, padLen uint8, padLen × 0x00,
//	          tensor (tensor format) }
//
// The pad after each key aligns the tensor frame to a 4-byte boundary;
// the frame header is 8 bytes plus 4 bytes per dimension, so the IEEE-754
// data lands 4-aligned too. Alignment is what lets recovery alias float32
// tensor data directly over a memory-mapped parameter blob instead of
// copying it out (tensor.AliasFrames). Version-1 blobs (no pad) remain
// readable; their misaligned frames just decode through the copying path.
const (
	sdMagic   = 0x44534d4d
	sdVersion = 2
)

// sdPad returns the number of zero bytes written after a key whose
// pad-length byte lands at offset off, so the following tensor frame
// starts 4-byte aligned.
func sdPad(off int64) int {
	return int((4 - (off+1)%4) % 4)
}

// appendDictHead appends the stream's first bytes — magic, version and
// entry count — to b.
func appendDictHead(b []byte, count int) []byte {
	b = binary.LittleEndian.AppendUint32(b, sdMagic)
	b = binary.LittleEndian.AppendUint16(b, sdVersion)
	return binary.LittleEndian.AppendUint32(b, uint32(count))
}

// appendEntryHead appends what precedes an entry's tensor frame — key
// length, key, pad length and pad — to b, for an entry starting at offset
// off of the stream.
func appendEntryHead(b []byte, off int64, key string) ([]byte, error) {
	if len(key) > 0xffff {
		return b, fmt.Errorf("nn: key %q too long", key)
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(key)))
	b = append(b, key...)
	p := sdPad(off + 2 + int64(len(key)))
	b = append(b, byte(p))
	for ; p > 0; p-- {
		b = append(b, 0)
	}
	return b, nil
}

// WriteTo serializes the dict and returns the number of bytes written.
func (sd *StateDict) WriteTo(w io.Writer) (int64, error) {
	// The buffer coalesces the header and key writes and the data of small
	// tensors into 64 KB writes. A tensor larger than the buffer has room
	// for fills it, and the rest reaches w in one Write straight from
	// tensor memory.
	bw := bufio.NewWriterSize(w, 1<<16)
	head := appendDictHead(nil, len(sd.entries))
	m, err := bw.Write(head)
	n := int64(m)
	if err != nil {
		return n, err
	}
	for _, e := range sd.entries {
		if head, err = appendEntryHead(head[:0], n, e.Key); err != nil {
			return n, err
		}
		m, err = bw.Write(head)
		n += int64(m)
		if err != nil {
			return n, err
		}
		nt, err := e.Tensor.WriteTo(bw)
		n += nt
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// WriteToWithDigests serializes the dict like WriteTo and fills the
// per-entry digest cache, so that a save digests each tensor at most once:
// FramesHash, Hash and LayerHashes then read the cache. The digests are
// computed by tensor.DigestAllStamped — which re-hashes only the tensors
// written since their last save — on another goroutine while this one
// serializes; both only read the entry tensors' bytes, which the caller
// must not mutate until WriteToWithDigests returns. It returns only after
// the digests are done, and sets the cache only when the write succeeded.
// When the cache is already populated, this is a plain WriteTo.
func (sd *StateDict) WriteToWithDigests(w io.Writer) (int64, error) {
	if sd.digests != nil {
		return sd.WriteTo(w)
	}
	digested := make(chan [][sha256.Size]byte, 1)
	go func() { digested <- sd.saveDigests() }()
	n, err := sd.WriteTo(w)
	digests := <-digested
	if err == nil {
		sd.digests = digests
	}
	return n, err
}

// SerializedSize returns the exact byte size WriteTo will produce.
func (sd *StateDict) SerializedSize() int64 {
	n := int64(10)
	for _, e := range sd.entries {
		n += 2 + int64(len(e.Key))
		n += int64(1 + sdPad(n))
		n += e.Tensor.SerializedSize()
	}
	return n
}

// ReadStateDict deserializes a state dict from r. The stream is read fully
// into memory and handed to ReadStateDictBytes, which decodes tensors in
// parallel; callers that already hold the serialized bytes (the recovery
// hot path does — load and deserialization are separate TTR buckets)
// should call ReadStateDictBytes directly to avoid the copy.
func ReadStateDict(r io.Reader) (*StateDict, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("nn: reading state dict: %w", err)
	}
	return ReadStateDictBytes(b)
}

// ReadStateDictBytes deserializes a state dict from its in-memory
// serialized form in two phases: a sequential scan locates every key and
// tensor-frame boundary without decoding data, then the frames are decoded
// with tensor.DecodeFrames' bounded worker pool (up to GOMAXPROCS
// workers). Decoding is positionwise, so the result is bit-identical to a
// sequential read for any worker count. The returned dict's tensors are
// fresh copies; b is not retained.
func ReadStateDictBytes(b []byte) (*StateDict, error) {
	keys, offs, err := scanStateDict(b)
	if err != nil {
		return nil, err
	}
	ts, err := tensor.DecodeFrames(b, offs)
	if err != nil {
		return nil, fmt.Errorf("nn: reading tensors: %w", err)
	}
	sd := NewStateDict()
	for i, key := range keys {
		sd.Set(key, ts[i])
	}
	return sd, nil
}

// ReadStateDictMapped deserializes a state dict whose serialized bytes
// stay alive and immutable for the dict's lifetime — a memory-mapped
// parameter blob, or a private heap buffer that no one mutates afterwards.
// Wherever platform and alignment allow (every version-2 frame on a
// little-endian platform), tensor data aliases b directly instead of
// being copied, and the aliasing tensors retain ref, so a mapping stays
// reachable — and mapped — while any tensor still reads from it.
//
// The returned dict is born sealed (without precomputed digests), so it
// is read-only: Set panics, and the aliased bytes — possibly a read-only
// mapping, where a stray write would fault — can never be written through
// the dict. Edit a Clone instead.
func ReadStateDictMapped(b []byte, ref any) (*StateDict, error) {
	keys, offs, err := scanStateDict(b)
	if err != nil {
		return nil, err
	}
	ts, err := tensor.AliasFrames(b, offs, ref)
	if err != nil {
		return nil, fmt.Errorf("nn: reading tensors: %w", err)
	}
	sd := NewStateDict()
	for i, key := range keys {
		sd.Set(key, ts[i])
	}
	sd.sealed = true
	return sd, nil
}

// scanStateDict locates every key and tensor-frame offset in a serialized
// state dict without decoding tensor data. It accepts both the current
// version-2 layout (aligned frames) and version-1 blobs written before
// the key padding existed.
func scanStateDict(b []byte) ([]string, []int, error) {
	if len(b) < 10 {
		return nil, nil, fmt.Errorf("nn: reading state dict header: truncated")
	}
	if binary.LittleEndian.Uint32(b[:4]) != sdMagic {
		return nil, nil, fmt.Errorf("nn: bad state dict magic")
	}
	v := binary.LittleEndian.Uint16(b[4:6])
	if v != 1 && v != sdVersion {
		return nil, nil, fmt.Errorf("nn: unsupported state dict version %d", v)
	}
	count := int(binary.LittleEndian.Uint32(b[6:10]))
	// Every entry takes at least a key length, a version-2 pad byte and a
	// frame header, so a count the rest of b cannot hold is rejected
	// before it sizes the two slices below.
	minEntry := 2 + 8
	if v >= 2 {
		minEntry++
	}
	if count < 0 || count > (len(b)-10)/minEntry {
		return nil, nil, fmt.Errorf("nn: state dict count %d exceeds what its %d bytes can hold", count, len(b))
	}
	keys := make([]string, count)
	offs := make([]int, count)
	off := 10
	for i := 0; i < count; i++ {
		if len(b)-off < 2 {
			return nil, nil, fmt.Errorf("nn: reading key length: truncated")
		}
		kl := int(binary.LittleEndian.Uint16(b[off:]))
		off += 2
		if len(b)-off < kl {
			return nil, nil, fmt.Errorf("nn: reading key: truncated")
		}
		keys[i] = string(b[off : off+kl])
		off += kl
		if v >= 2 {
			if len(b)-off < 1 {
				return nil, nil, fmt.Errorf("nn: reading key padding: truncated")
			}
			p := int(b[off])
			if p > 3 {
				return nil, nil, fmt.Errorf("nn: bad key padding length %d", p)
			}
			off += 1 + p
			if off > len(b) {
				return nil, nil, fmt.Errorf("nn: reading key padding: truncated")
			}
		}
		offs[i] = off
		end, err := tensor.ScanFrame(b, off)
		if err != nil {
			return nil, nil, fmt.Errorf("nn: scanning tensor for %q: %w", keys[i], err)
		}
		off = end
	}
	return keys, offs, nil
}
