// Package tensor implements a dense float32 tensor library used as the
// numerical substrate for the mmlib-go reproduction. It provides shape
// handling, elementwise and linear-algebra operations with deterministic and
// parallel (order-dependent) reduction modes, a seeded pseudo-random number
// generator, binary serialization, and content hashing.
//
// The parallel reduction modes exist to reproduce the floating-point
// non-associativity discussion of the paper (Figure 2): summing the same
// values in a different order can yield a slightly different float result.
package tensor

import (
	"crypto/sha256"
	"fmt"
	"math"
	"sync/atomic"
)

// Tensor is a dense, row-major float32 tensor. The zero value is not usable;
// construct tensors with New, Zeros, Full, or the random constructors.
type Tensor struct {
	shape []int
	data  []float32
	// ref pins the backing storage of an aliased tensor (e.g. a
	// memory-mapped parameter blob) reachable for the tensor's lifetime,
	// so the mapping cannot be unmapped while the data is still readable
	// through it. nil for tensors that own their data.
	ref any
	// gen is the write generation of data: every path that hands out or
	// writes the memory bumps it (see touch). Reshape views share their
	// source's counter, so a write through any view moves all of them.
	// nil when the memory is not the tensor's to track — New's caller
	// keeps the slice, and an aliased blob is never written — and such a
	// tensor never records a stamp.
	gen *atomic.Uint64
	// stamp is the digest the last save computed, tagged with the
	// generation read before hashing began (see digest.go). It counts only
	// while that generation is still current.
	stamp atomic.Pointer[stamp]
}

// stamp is one recorded digest and the generation it describes.
type stamp struct {
	gen    uint64
	digest [sha256.Size]byte
}

// New creates a tensor with the given shape backed by data. The data slice is
// used directly (not copied); it must have exactly Prod(shape) elements.
// The caller keeps the slice and may write it at any time, so such a tensor
// never records a stamp and every save digests it afresh.
func New(data []float32, shape ...int) *Tensor {
	n := Prod(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (want %d)", len(data), shape, n))
	}
	return &Tensor{shape: cloneInts(shape), data: data}
}

// Zeros creates a tensor of the given shape filled with zeros.
func Zeros(shape ...int) *Tensor {
	return &Tensor{shape: cloneInts(shape), data: make([]float32, Prod(shape)), gen: new(atomic.Uint64)}
}

// touch bumps the write generation, staling every stamp recorded on t or
// on any view sharing its memory, and returns the new generation. Every
// write to memory the writer did not just allocate goes through it, before
// the first byte changes.
func (t *Tensor) touch() uint64 {
	if t.gen == nil {
		return 0
	}
	return t.gen.Add(1)
}

// Full creates a tensor of the given shape with every element set to v.
func Full(v float32, shape ...int) *Tensor {
	t := Zeros(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Scalar creates a 0-dimensional tensor holding v.
func Scalar(v float32) *Tensor {
	t := Zeros()
	t.data[0] = v
	return t
}

// Prod returns the product of dims; the empty product is 1.
func Prod(dims []int) int {
	n := 1
	for _, d := range dims {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, dims))
		}
		n *= d
	}
	return n
}

func cloneInts(s []int) []int {
	c := make([]int, len(s))
	copy(c, s)
	return c
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return cloneInts(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// NDim returns the number of dimensions.
func (t *Tensor) NDim() int { return len(t.shape) }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the underlying data slice. Mutating it mutates the tensor.
// Mutating an Aliased tensor's data is forbidden: the slice may alias a
// read-only memory mapping, where a store faults.
//
// Data is the one writable accessor, so it stales the tensor's stamp
// before returning: the next save digests the tensor afresh. The slice is
// for the caller's own function — mmlint keeps it from escaping into a
// field, a container, a channel, a return value or a goroutine — and must
// not be written after a save that began once it was taken.
func (t *Tensor) Data() []float32 {
	t.touch()
	return t.data
}

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float32 {
	return t.data[t.offset(idx)]
}

// Set assigns v to the element at the given multi-dimensional index.
func (t *Tensor) Set(v float32, idx ...int) {
	off := t.offset(idx)
	t.touch()
	t.data[off] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v has wrong rank for shape %v", idx, t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Clone returns a deep copy of the tensor, carrying its stamp along as
// CopyFrom does. The copy's storage is allocated and written in one pass:
// append zero-fills none of the memory it is about to overwrite.
func (t *Tensor) Clone() *Tensor {
	s := t.currentStamp()
	c := &Tensor{shape: cloneInts(t.shape), data: append([]float32(nil), t.data...), gen: new(atomic.Uint64)}
	if s != nil && t.gen.Load() == s.gen {
		c.stamp.Store(&stamp{digest: s.digest})
	}
	return c
}

// CopyFrom copies src's values into t, which must have src's shape. It is
// the stamp-carrying copy: when src holds a stamp that is still current,
// and no write to src lands while the bytes are copied, t records the same
// digest — equal shape and equal bytes hash equally — so a save of t need
// not re-hash what a save of src already did.
func (t *Tensor) CopyFrom(src *Tensor) {
	checkSameShape("CopyFrom", t, src)
	g := t.touch()
	s := src.currentStamp()
	copy(t.data, src.data)
	if s != nil && t.gen != nil && src.gen.Load() == s.gen {
		t.stamp.Store(&stamp{gen: g, digest: s.digest})
	}
}

// StampCurrent reports whether t holds a stamp that no write has staled
// since it was recorded: false for a tensor written since the last save
// (or training run) that digested it, and for one never stamped. A save
// of a parameter update guesses its changed layers from it before it
// digests anything.
func (t *Tensor) StampCurrent() bool { return t.currentStamp() != nil }

// currentStamp returns t's stamp if no write has moved its generation
// since the stamp was recorded, or nil.
func (t *Tensor) currentStamp() *stamp {
	if t.gen == nil {
		return nil
	}
	if s := t.stamp.Load(); s != nil && s.gen == t.gen.Load() {
		return s
	}
	return nil
}

// Reshape returns a view of the tensor with a new shape. The total number of
// elements must be unchanged. The returned tensor shares data — and the
// write generation — with t; its stamp is its own, as its shape is.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	if Prod(shape) != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.shape, shape))
	}
	return &Tensor{shape: cloneInts(shape), data: t.data, ref: t.ref, gen: t.gen}
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// Equal reports whether t and o have identical shapes and bit-identical
// data. This is the model-equality notion of the paper (Section 2.1):
// recovered models must be exactly equal, not approximately equal.
// Comparison is over the IEEE-754 bit patterns, so NaN payloads compare
// equal to themselves — a state dict holding NaNs (e.g. from a diverged
// training run) still round-trips as "exactly equal", consistent with the
// content hashes used for checksum verification.
func (t *Tensor) Equal(o *Tensor) bool {
	if !t.SameShape(o) {
		return false
	}
	for i := range t.data {
		if math.Float32bits(t.data[i]) != math.Float32bits(o.data[i]) {
			return false
		}
	}
	return true
}

// AllClose reports whether every element of t is within atol of the
// corresponding element of o. Used by tests and the probing tool when
// checking near-but-not-exact reproduction (e.g. parallel reductions).
func (t *Tensor) AllClose(o *Tensor, atol float32) bool {
	if !t.SameShape(o) {
		return false
	}
	for i := range t.data {
		d := t.data[i] - o.data[i]
		if d < 0 {
			d = -d
		}
		if d > atol {
			return false
		}
	}
	return true
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	t.touch()
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	t.touch()
	for i := range t.data {
		t.data[i] = 0
	}
}

// String renders a short human-readable description of the tensor.
func (t *Tensor) String() string {
	if len(t.data) <= 8 {
		return fmt.Sprintf("Tensor%v%v", t.shape, t.data)
	}
	return fmt.Sprintf("Tensor%v[%v %v %v ...; n=%d]", t.shape, t.data[0], t.data[1], t.data[2], len(t.data))
}
