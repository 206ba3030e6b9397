package core

import (
	"context"

	"repro/internal/obs"
)

// Request coalescing for cold cache entries. When a popular model is not
// yet cached — a fresh serving process, an eviction, a deploy — every
// concurrent request for it misses and each runs the full recovery: N
// clients pay N recoveries for one model (the thundering herd the serving
// experiment's cold-start phase measures). Coalescing collapses them: the
// first requester becomes the flight's leader and recovers normally (its
// miss path populates the cache); the others wait for the flight to finish
// and then take the cache hit the leader just created. One recovery per
// cold model per process, regardless of concurrency.
//
// Failure sharing is deliberately NOT singleflight-classic: a leader whose
// recovery fails does not fail its followers. Under fault injection one
// poisoned connection would otherwise fan a single transient error out to
// every waiter; instead each follower falls back to its own recovery
// attempt, restoring exactly the pre-coalescing behavior on error paths.

var mCacheCoalesced = obs.Default().Counter("core.cache.coalesced")

// flight is one in-progress cold recovery, keyed by model id in the
// cache's flight table.
type flight struct {
	done chan struct{}
	err  error // the leader's outcome, readable after done closes
}

// joinFlight makes the caller the leader of a new flight for id (second
// return true) or a follower of the one already in progress. Followers are
// counted as coalesced requests.
func (c *RecoveryCache) joinFlight(id string) (*flight, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if fl, ok := c.flights[id]; ok {
		c.stats.Coalesced++
		mCacheCoalesced.Inc()
		return fl, false
	}
	if c.flights == nil {
		c.flights = make(map[string]*flight)
	}
	fl := &flight{done: make(chan struct{})}
	c.flights[id] = fl
	return fl, true
}

// endFlight publishes the leader's outcome and releases the followers.
func (c *RecoveryCache) endFlight(id string, fl *flight, err error) {
	c.mu.Lock()
	delete(c.flights, id)
	c.mu.Unlock()
	fl.err = err
	close(fl.done)
}

// SetCoalescing enables or disables cold-miss request coalescing (enabled
// by default). The switch exists so the serving experiment can measure the
// thundering herd with and without it; production paths have no reason to
// turn it off.
func (c *RecoveryCache) SetCoalescing(enabled bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.noCoalesce = !enabled
}

// coalescing reports whether cold-miss coalescing is active.
func (c *RecoveryCache) coalescing() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.noCoalesce
}

// recoverCoalesced runs one state recovery through the cache's flight
// table. The leader executes miss() — whose own cache probe and populate
// logic is untouched — while followers for the same id wait and then serve
// themselves from the cache entry the leader inserted, under their own
// RecoverOptions (a follower that asked for checksum verification still
// gets it). Followers fall back to their own miss() when the leader failed
// or when the recovered state was not cacheable (too large for the bound),
// and stop waiting when their own ctx is cancelled.
func recoverCoalesced(ctx context.Context, cache *RecoveryCache, id string, opts RecoverOptions, miss func() (*RecoveredState, error)) (*RecoveredState, error) {
	if cache == nil || !cache.coalescing() {
		return miss()
	}
	fl, leader := cache.joinFlight(id)
	if leader {
		rs, err := miss()
		cache.endFlight(id, fl, err)
		return rs, err
	}
	var timing RecoverTiming
	err := phase(ctx, "flight.wait", &timing.Load, func(*obs.Span) error {
		select {
		case <-fl.done:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	if err != nil {
		return nil, err
	}
	if fl.err == nil {
		if cr, ok := cache.Get(id); ok {
			return stateFromCache(ctx, id, cr, opts, timing)
		}
	}
	rs, err := miss()
	if err == nil {
		rs.Timing.add(timing) // the wait is part of this caller's time to recover
	}
	return rs, err
}
