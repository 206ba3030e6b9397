package nn

// Sealed state dicts — the serving-tier primitive. A recovered state that
// will be shared (by the recovery cache, or by concurrent serve clients)
// is sealed once and then handed out as is: a sealed dict is read-only.
// Set on it panics, so no write through the dict API can reach shared
// bytes — which may be a read-only memory mapping where a stray store
// would fault, not just corrupt. A caller that wants to edit a sealed
// state edits a Clone.
//
// The one contract sealing cannot enforce is direct tensor-data mutation
// (t.Data()[i] = x) on a sealed dict: that bypasses the dict API
// entirely. It is a documented violation; only a Paranoid recovery cache
// (which re-hashes stored bytes on every hit via HashFresh) detects it.

// Seal freezes the dict: the per-entry content digests are computed afresh
// and cached with one parallel pass (a no-op when already cached), and
// Set panics from then on. The pass neither reads nor records tensor
// stamps: a sealed state is what a recovery verifies and a cache serves,
// and that must not rest on a stamp. After sealing, Hash is O(entries).
// Seal returns sd for chaining. Sealing is idempotent.
func (sd *StateDict) Seal() *StateDict {
	if sd.digests == nil {
		sd.digests = sd.computeDigests()
	}
	sd.sealed = true
	return sd
}

// Sealed reports whether the dict is sealed (read-only).
func (sd *StateDict) Sealed() bool { return sd.sealed }

// Version returns a stable identity token for the dict's contents: the
// dict itself. A sealed dict's contents never change and the recovery
// cache hands out its entry's dict on every hit, so a serve loop that
// kept the token from its last recovery can skip reinstantiating its net
// when the next recovery returns the same token — the O(1) hot path of
// the serving tier.
func (sd *StateDict) Version() *StateDict { return sd }

// HashFresh returns the dict content hash recomputed from the current
// tensor bytes, bypassing the digest cache a sealed dict carries. It is
// the verification-on-hit primitive: a sealed dict whose raw tensor data
// was corrupted in memory still reports its stale cached digests through
// Hash, while HashFresh re-reads every byte.
func (sd *StateDict) HashFresh() string {
	return sd.hashDigests(sd.computeDigests())
}
