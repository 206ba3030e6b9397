package nn

import (
	"repro/internal/tensor"
)

// Sealed, copy-on-write state dicts — the serving-tier primitive. A
// recovered state that will be shared (by the recovery cache, or by
// concurrent serve clients) is sealed once; every consumer then receives
// an O(1) Share view instead of a deep clone. Mutation through the dict
// API (Set, MutableTensor) transparently detaches the mutating view into
// private index structures and clones only the touched tensors, so no
// write can ever reach the shared bytes — which may be a read-only
// memory mapping where a stray store would fault, not just corrupt.
//
// The one contract sealing cannot enforce is direct tensor-data mutation
// (t.Data()[i] = x) on a sealed dict: that bypasses the dict API
// entirely. It is a documented violation; only a Paranoid recovery cache
// (which re-hashes stored bytes on every hit via HashFresh) detects it.

// Seal freezes the dict: the per-entry content digests are computed afresh
// and cached with one parallel pass (a no-op when already cached), and
// every subsequent structural mutation copy-on-writes. The pass neither
// reads nor records tensor stamps: a sealed state is what a recovery
// verifies and a cache serves, and that must not rest on a stamp. After
// sealing, Hash is O(entries) and Share is O(1). Seal returns sd for
// chaining. Sealing is idempotent.
func (sd *StateDict) Seal() *StateDict {
	if sd.digests == nil {
		sd.digests = sd.computeDigests()
	}
	sd.sealed = true
	return sd
}

// Sealed reports whether the dict is sealed (frozen, with copy-on-write
// mutation). Share views report true until their first mutation detaches
// them.
func (sd *StateDict) Sealed() bool { return sd.sealed }

// Share returns an O(1) copy-on-write view of the dict: the view aliases
// the dict's entries, index, and digest cache, costing a few words
// regardless of model size. Mutating the view through Set or
// MutableTensor detaches it first — private entries slice and index map,
// tensors still shared — and replaces only the touched tensors, so the
// owner and all other views never observe the change. An unsealed dict
// is sealed first: callers hand a dict to Share exactly when they are
// done mutating it.
func (sd *StateDict) Share() *StateDict {
	if !sd.sealed {
		sd.Seal()
	}
	return &StateDict{entries: sd.entries, index: sd.index, digests: sd.digests, sealed: true, origin: sd.Version()}
}

// Version returns a stable identity token for the dict's contents: every
// Share view of the same sealed owner returns the same token, and a view
// that has detached (mutated) gets a fresh one. Sealed contents never
// change, so a serve loop that kept the token from its last recovery can
// skip reinstantiating its net when the next recovery returns the same
// token — the O(1) hot path of the serving tier.
func (sd *StateDict) Version() *StateDict {
	if sd.origin != nil {
		return sd.origin
	}
	return sd
}

// OnDetach registers fn to run when the dict's first copy-on-write detach
// fires (at most once, from the mutating goroutine). The recovery cache
// registers a counter here to report shared vs COW'd hits.
func (sd *StateDict) OnDetach(fn func()) { sd.onDetach = fn }

// detach gives a sealed dict private index structures so it can be
// mutated without affecting the sealed owner or any other view: the
// entries slice and index map are copied, every tensor is marked as still
// shared (cloned lazily as it is touched), the digest cache reference is
// dropped, and the dict is unsealed.
func (sd *StateDict) detach() {
	entries := make([]Entry, len(sd.entries))
	copy(entries, sd.entries)
	index := make(map[string]int, len(sd.index))
	for k, v := range sd.index {
		index[k] = v
	}
	shared := make([]bool, len(entries))
	for i := range shared {
		shared[i] = true
	}
	sd.entries, sd.index, sd.cowShared = entries, index, shared
	sd.digests = nil
	sd.sealed = false
	sd.origin = nil // private now: a new version
	if sd.onDetach != nil {
		fn := sd.onDetach
		sd.onDetach = nil
		fn()
	}
}

// MutableTensor returns the tensor for key with mutation rights: a sealed
// dict detaches first, and an entry whose tensor is still shared with the
// sealed origin is replaced by a private clone before being handed out —
// the copy-on-write of exactly one tensor. The digest cache is dropped
// because the caller is about to change bytes.
func (sd *StateDict) MutableTensor(key string) (*tensor.Tensor, bool) {
	if sd.sealed {
		sd.detach()
	}
	i, ok := sd.index[key]
	if !ok {
		return nil, false
	}
	sd.digests = nil
	if sd.cowShared != nil && i < len(sd.cowShared) && sd.cowShared[i] {
		sd.entries[i].Tensor = sd.entries[i].Tensor.Clone()
		sd.cowShared[i] = false
	}
	return sd.entries[i].Tensor, true
}

// HashFresh returns the dict content hash recomputed from the current
// tensor bytes, bypassing the digest cache a sealed dict carries. It is
// the verification-on-hit primitive: a sealed dict whose raw tensor data
// was corrupted in memory still reports its stale cached digests through
// Hash, while HashFresh re-reads every byte.
func (sd *StateDict) HashFresh() string {
	return sd.hashDigests(sd.computeDigests())
}
