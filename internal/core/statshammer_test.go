package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestRecoveryCacheStatsHammer reads Stats() and the obs registry
// snapshot while concurrent workers churn Get/Put/eviction — the
// snapshot-while-updating audit the observability migration calls for,
// meaningful under -race (the core package is on the race gate).
func TestRecoveryCacheStatsHammer(t *testing.T) {
	rec := testCachedRecovery(t, 7)
	// Bound the cache to a handful of entries so the hammer also exercises
	// the eviction counters.
	c := NewRecoveryCache(4 * stateBytes(rec.State))

	const workers, iters = 8, 60
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				id := fmt.Sprintf("m-%d", (w+i)%8)
				if got, ok := c.Get(id); ok {
					// Read the shared state so hits race with each other
					// and with the Put that sealed it.
					if got.State.Hash() != got.VerifiedHash {
						t.Errorf("hit of %s hashes to %s, entry to %s", id, got.State.Hash(), got.VerifiedHash)
					}
				} else {
					c.Put(id, rec)
				}
			}
		}(w)
	}
	for i := 0; i < 40; i++ {
		s := c.Stats()
		if uint64(s.Entries)+s.Evictions > s.Puts {
			t.Fatalf("inconsistent snapshot: %d entries + %d evictions > %d puts", s.Entries, s.Evictions, s.Puts)
		}
		if s.Bytes < 0 || s.Entries < 0 {
			t.Fatalf("negative occupancy: %+v", s)
		}
		obs.Default().Snapshot() // registry mirrors race alongside
	}
	wg.Wait()
	s := c.Stats()
	if s.Hits+s.Misses == 0 {
		t.Fatal("hammer produced no cache traffic")
	}
	snap := obs.Default().Snapshot()
	if snap.Counters["core.cache.puts"] < int64(s.Puts) {
		t.Fatalf("registry mirror behind: core.cache.puts %d < this cache's Puts %d",
			snap.Counters["core.cache.puts"], s.Puts)
	}
}
