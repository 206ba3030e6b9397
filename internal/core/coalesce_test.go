package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitCoalesced polls until n requests have joined in-flight recoveries,
// so tests can order "followers have joined" before "leader finishes"
// without reaching into the flight table.
func waitCoalesced(t *testing.T, c *RecoveryCache, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Coalesced < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d followers joined", c.Stats().Coalesced, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRecoverCoalescedFollowersShareLeader(t *testing.T) {
	cache := NewRecoveryCache(0)
	rec := testCachedRecovery(t, 3)
	entered := make(chan struct{})
	release := make(chan struct{})
	var leaderRuns atomic.Int64

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rs, err := recoverCoalesced(context.Background(), cache, "m", RecoverOptions{}, func() (*RecoveredState, error) {
			leaderRuns.Add(1)
			close(entered)
			<-release
			cache.Put("m", rec)
			cr, _ := cache.Get("m")
			return stateFromCache(context.Background(), "m", cr, RecoverOptions{}, RecoverTiming{})
		})
		if err != nil || rs == nil {
			t.Errorf("leader recover: %v", err)
		}
	}()
	<-entered

	const followers = 8
	results := make([]*RecoveredState, followers)
	wg.Add(followers)
	for i := 0; i < followers; i++ {
		go func(i int) {
			defer wg.Done()
			rs, err := recoverCoalesced(context.Background(), cache, "m", RecoverOptions{}, func() (*RecoveredState, error) {
				t.Error("follower must not run its own recovery when the leader succeeds")
				return nil, errors.New("unexpected")
			})
			if err != nil {
				t.Errorf("follower recover: %v", err)
			}
			results[i] = rs
		}(i)
	}
	waitCoalesced(t, cache, followers)
	close(release)
	wg.Wait()

	want := rec.State.Hash()
	for i, rs := range results {
		if rs == nil || !rs.CacheHit {
			t.Fatalf("follower %d did not get a cache hit: %+v", i, rs)
		}
		if rs.State.Hash() != want {
			t.Fatalf("follower %d state differs from the leader's", i)
		}
	}
	if n := leaderRuns.Load(); n != 1 {
		t.Fatalf("leader recovery ran %d times, want 1", n)
	}
	s := cache.Stats()
	if s.Coalesced != followers {
		t.Fatalf("Coalesced = %d, want %d", s.Coalesced, followers)
	}
}

func TestRecoverCoalescedLeaderFailureDoesNotPoisonFollowers(t *testing.T) {
	cache := NewRecoveryCache(0)
	rec := testCachedRecovery(t, 4)
	entered := make(chan struct{})
	release := make(chan struct{})
	var fallbacks atomic.Int64

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := recoverCoalesced(context.Background(), cache, "m", RecoverOptions{}, func() (*RecoveredState, error) {
			close(entered)
			<-release
			return nil, errors.New("injected: leader's connection died")
		})
		if err == nil {
			t.Error("leader should have failed")
		}
	}()
	<-entered

	const followers = 4
	wg.Add(followers)
	for i := 0; i < followers; i++ {
		go func() {
			defer wg.Done()
			rs, err := recoverCoalesced(context.Background(), cache, "m", RecoverOptions{}, func() (*RecoveredState, error) {
				// The follower's own attempt succeeds: the fault was the
				// leader's alone and must not fan out.
				fallbacks.Add(1)
				cr := rec
				cr.VerifiedHash = cr.StateHash
				return stateFromCache(context.Background(), "m", cr, RecoverOptions{}, RecoverTiming{})
			})
			if err != nil || rs == nil {
				t.Errorf("follower fallback: %v", err)
			}
		}()
	}
	waitCoalesced(t, cache, followers)
	close(release)
	wg.Wait()

	if n := fallbacks.Load(); n != followers {
		t.Fatalf("fallback recoveries = %d, want %d", n, followers)
	}
}

func TestColdRecoverThunderingHerdCoalesces(t *testing.T) {
	stores := testStores(t)
	ba := NewBaseline(stores)
	cache := NewRecoveryCache(0)
	ba.SetRecoveryCache(cache)
	res, err := ba.Save(SaveInfo{Spec: tinySpec(), Net: tinyNet(t, 9), WithChecksums: true})
	if err != nil {
		t.Fatal(err)
	}

	// A herd of concurrent recoveries against a cold cache: the flight
	// table must collapse them to a single store-walking recovery. Every
	// request that joined before the leader finished waits; stragglers that
	// arrived after take an ordinary cache hit — either way the cache is
	// populated exactly once.
	const herd = 16
	var wg sync.WaitGroup
	wg.Add(herd)
	hashes := make([]string, herd)
	for i := 0; i < herd; i++ {
		go func(i int) {
			defer wg.Done()
			rs, err := ba.RecoverState(res.ID, RecoverOptions{VerifyChecksums: true})
			if err != nil {
				t.Errorf("herd recover %d: %v", i, err)
				return
			}
			hashes[i] = rs.State.Hash()
		}(i)
	}
	wg.Wait()

	s := cache.Stats()
	if s.Puts != 1 {
		t.Fatalf("cold herd populated the cache %d times, want 1 (stats %+v)", s.Puts, s)
	}
	for i := 1; i < herd; i++ {
		if hashes[i] != hashes[0] {
			t.Fatalf("herd member %d recovered a different state", i)
		}
	}
}
