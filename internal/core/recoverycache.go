package core

import (
	"container/list"
	"sync"

	"repro/internal/environment"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/obs"
)

// Registry mirrors of the per-cache stats: process-wide cache traffic
// aggregated across every RecoveryCache instance, so one obs snapshot
// answers "did serving hit the cache" without plumbing Stats() around.
var (
	mCacheHits      = obs.Default().Counter("core.cache.hits")
	mCacheMisses    = obs.Default().Counter("core.cache.misses")
	mCachePuts      = obs.Default().Counter("core.cache.puts")
	mCacheEvictions = obs.Default().Counter("core.cache.evictions")
	mCacheCorrupt   = obs.Default().Counter("core.cache.corrupt")
	mCacheCowHits   = obs.Default().Counter("core.cache.cow_hits")
)

// RecoveryCache memoizes recovered model states keyed by model identifier,
// so a U4 sweep over a derivation chain recovers each prefix once: a PUA
// recover that finds its base in the cache merges only the suffix updates,
// and an MPA recover replays only the suffix training links, turning the
// sweep's total cost linear in chain length instead of quadratic (the
// lineage-aware caching MGit applies to the same derivation-chain shape).
//
// Safety is non-negotiable — the stores' whole point is exact recovery —
// but as of the serving-tier work it no longer costs O(model size) per
// hit. Cached states are sealed (immutable with copy-on-write mutation,
// nn.StateDict.Seal), so:
//
//   - Get hands out an O(1) Share view instead of a deep clone. A caller
//     mutating its recovered state through the dict API detaches the view
//     and copies only the touched tensors; the cached copy and every
//     other view are structurally unreachable from the mutation.
//   - The state's content hash is verified once, at insert. The default
//     cache trusts sealed immutability afterwards; a Paranoid cache
//     additionally re-hashes the stored tensor bytes on every hit
//     (nn.StateDict.HashFresh, bypassing the sealed digest cache), so
//     even out-of-contract raw-memory corruption degrades to a miss
//     instead of propagating wrong parameters. Fault-injection tests run
//     Paranoid; serving runs the default.
//
// The cache is bounded by the approximate in-memory size of its state
// dicts and evicts least-recently-used entries. All methods are safe for
// concurrent use; hash passes run outside the lock (entries are immutable
// once inserted), so concurrent recoveries only serialize on the index
// bookkeeping.
type RecoveryCache struct {
	mu       sync.Mutex
	maxBytes int64
	curBytes int64
	paranoid bool
	entries  map[string]*cacheEntry
	lru      *list.List // front = most recently used; values are *cacheEntry
	stats    RecoveryCacheStats
	// flights tracks in-progress cold recoveries for request coalescing
	// (coalesce.go).
	flights map[string]*flight
}

// cacheEntry is immutable after insertion.
type cacheEntry struct {
	id    string
	rec   CachedRecovery // rec.State is sealed and owned by the cache
	hash  string         // rec.State.Hash() at insert time
	bytes int64
	elem  *list.Element
}

// CachedRecovery is the cacheable portion of a recovered model. The State
// a caller receives from Get is an O(1) copy-on-write view of the cache's
// sealed dict; the State a caller passes to Put is taken zero-copy when
// already sealed and deep-cloned otherwise.
type CachedRecovery struct {
	// Spec is the architecture, so a hit rebuilds the net without walking
	// to the chain's snapshot root for the model code.
	Spec models.Spec
	// BaseID is the model's base reference.
	BaseID string
	// State is the full recovered state dict.
	State *nn.StateDict
	// Env is the recorded execution environment, kept so a hit can still
	// honor RecoverOptions.CheckEnv.
	Env environment.Info
	// TrainablePrefixes restores layer freezing on a rebuilt net.
	TrainablePrefixes []string
	// StateHash is the checksum stored in the model's document ("" when it
	// was saved without checksums). A hit under VerifyChecksums compares
	// it against VerifiedHash.
	StateHash string
	// VerifiedHash is the content hash the cache computed from the state
	// at insert time. Get fills it in, making checksum verification on a
	// hit an O(1) string compare instead of a hashing pass; a Paranoid
	// cache has additionally just re-derived it from the stored bytes.
	VerifiedHash string
}

// RecoveryCacheStats counts cache traffic.
type RecoveryCacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Puts      uint64 `json:"puts"`
	Evictions uint64 `json:"evictions"`
	// Corrupt counts hits rejected by Paranoid verification: the stored
	// state no longer hashed to its insert-time hash.
	Corrupt uint64 `json:"corrupt"`
	// CowHits counts hits whose shared state was later mutated by its
	// caller, firing the copy-on-write detach.
	CowHits uint64 `json:"cow_hits"`
	// Coalesced counts recoveries that joined an in-flight recovery of the
	// same model instead of running their own (coalesce.go).
	Coalesced uint64 `json:"coalesced"`
	// SharedHits (derived: Hits - CowHits) counts hits whose handed-out
	// state stayed a zero-copy view for its whole lifetime so far.
	SharedHits uint64 `json:"shared_hits"`
	// Entries and Bytes describe current occupancy.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
}

// DefaultRecoveryCacheBytes is the bound NewRecoveryCache applies when
// given a non-positive size: roomy enough for a handful of large models,
// small enough to stay incidental next to the stores themselves.
const DefaultRecoveryCacheBytes = 256 << 20

// NewRecoveryCache creates a cache bounded to approximately maxBytes of
// cached state (<= 0 selects DefaultRecoveryCacheBytes).
func NewRecoveryCache(maxBytes int64) *RecoveryCache {
	if maxBytes <= 0 {
		maxBytes = DefaultRecoveryCacheBytes
	}
	return &RecoveryCache{
		maxBytes: maxBytes,
		entries:  make(map[string]*cacheEntry),
		lru:      list.New(),
	}
}

// NewParanoidRecoveryCache creates a cache that re-hashes every entry's
// stored tensor bytes on every hit (verification-on-hit, computed fresh,
// never from a digest cache) and drops entries that no longer match their
// insert-time hash. This is the pre-serving-tier safety posture: O(model
// size) per hit, but immune even to direct in-memory corruption of cached
// tensor data, which sealed dicts forbid but cannot physically prevent.
// Fault-injection tests want it; serving does not.
func NewParanoidRecoveryCache(maxBytes int64) *RecoveryCache {
	c := NewRecoveryCache(maxBytes)
	c.paranoid = true
	return c
}

// Paranoid reports whether the cache verifies entries on every hit.
func (c *RecoveryCache) Paranoid() bool { return c.paranoid }

// Get returns the cached recovery for id. The returned State is an O(1)
// copy-on-write view of the cache's sealed dict — mutating it through the
// dict API can never reach the cached copy. Under Paranoid the stored
// state is re-hashed first; on a mismatch the entry is dropped and Get
// reports a miss.
func (c *RecoveryCache) Get(id string) (CachedRecovery, bool) {
	c.mu.Lock()
	e, ok := c.entries[id]
	if !ok {
		c.stats.Misses++
		mCacheMisses.Inc()
		c.mu.Unlock()
		return CachedRecovery{}, false
	}
	c.lru.MoveToFront(e.elem)
	c.mu.Unlock()

	if c.paranoid {
		// Verification-on-hit, outside the lock: HashFresh bypasses the
		// sealed dict's digest cache and re-reads every tensor byte, so
		// corruption of the raw cached data cannot hide behind the
		// digests computed at insert time.
		if e.rec.State.HashFresh() != e.hash {
			c.drop(e)
			return CachedRecovery{}, false
		}
	}
	out := e.rec
	out.VerifiedHash = e.hash
	out.State = e.rec.State.Share()
	out.State.OnDetach(c.noteCow)
	c.mu.Lock()
	c.stats.Hits++
	c.mu.Unlock()
	mCacheHits.Inc()
	return out, true
}

// noteCow counts a shared hit whose caller mutated its view.
func (c *RecoveryCache) noteCow() {
	c.mu.Lock()
	c.stats.CowHits++
	c.mu.Unlock()
	mCacheCowHits.Inc()
}

// drop removes a corrupted entry (if still present) and counts it.
func (c *RecoveryCache) drop(e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Corrupt++
	c.stats.Misses++
	mCacheCorrupt.Inc()
	mCacheMisses.Inc()
	if cur, ok := c.entries[e.id]; ok && cur == e {
		c.removeLocked(cur)
	}
}

// Put inserts rec under id, evicting least-recently-used entries until
// the bound holds. A state larger than the whole bound is not cached. An
// already-sealed state is taken zero-copy — the recovery paths seal their
// freshly decoded states exactly so the insert costs one digest pass and
// no clone; an unsealed state (a live net's dict, as the provenance and
// adaptive approaches cache) is deep-cloned first because its caller may
// keep mutating it.
func (c *RecoveryCache) Put(id string, rec CachedRecovery) {
	if rec.State == nil {
		return
	}
	size := stateBytes(rec.State)
	if size > c.maxBytes {
		return
	}
	// Clone (when needed), seal, and hash outside the lock; these are the
	// passes over the state and must not serialize concurrent recoveries.
	// Seal computes the per-entry digests once; the insert hash below
	// reuses them.
	if !rec.State.Sealed() {
		rec.State = rec.State.Clone()
	}
	rec.State.Seal()
	rec.VerifiedHash = "" // belongs to Get's output, not the stored entry
	e := &cacheEntry{id: id, rec: rec, hash: rec.State.Hash(), bytes: size}

	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[id]; ok {
		c.removeLocked(old)
	}
	c.entries[id] = e
	e.elem = c.lru.PushFront(e)
	c.curBytes += e.bytes
	c.stats.Puts++
	mCachePuts.Inc()
	for c.curBytes > c.maxBytes {
		oldest := c.lru.Back()
		if oldest == nil {
			break
		}
		c.removeLocked(oldest.Value.(*cacheEntry))
		c.stats.Evictions++
		mCacheEvictions.Inc()
	}
}

// removeLocked unlinks e from the index and the LRU list.
func (c *RecoveryCache) removeLocked(e *cacheEntry) {
	delete(c.entries, e.id)
	c.lru.Remove(e.elem)
	c.curBytes -= e.bytes
}

// Stats returns a snapshot of the cache counters.
func (c *RecoveryCache) Stats() RecoveryCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.SharedHits = s.Hits - s.CowHits
	s.Entries = len(c.entries)
	s.Bytes = c.curBytes
	return s
}

// stateBytes approximates the in-memory size of a state dict: tensor data
// plus a small per-entry overhead for keys and headers.
func stateBytes(sd *nn.StateDict) int64 {
	return sd.SerializedSize()
}
