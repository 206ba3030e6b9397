package shard_test

import (
	"fmt"
	"testing"

	"repro/internal/docdb"
	"repro/internal/filestore"
	"repro/internal/shard"
)

// TestRingIsDeterministicAcrossInstances is the routing contract: two
// rings built from the same (nodes, vnodes) pair — in this process or any
// other — must agree on the owner of every key. Client-side routing is
// only an address if every process computes the same one.
func TestRingIsDeterministicAcrossInstances(t *testing.T) {
	for _, nodes := range []int{1, 2, 4, 7} {
		a, err := shard.NewRing(nodes, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := shard.NewRing(nodes, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			key := fmt.Sprintf("models/doc-%d", i)
			if a.Owner(key) != b.Owner(key) {
				t.Fatalf("nodes=%d: rings disagree on owner of %q: %d vs %d", nodes, key, a.Owner(key), b.Owner(key))
			}
		}
	}
}

// TestRingOwnerInRange checks every key routes to a valid backend index.
func TestRingOwnerInRange(t *testing.T) {
	r, err := shard.NewRing(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		if o := r.Owner(docdb.NewID()); o < 0 || o >= 4 {
			t.Fatalf("owner %d out of range [0,4)", o)
		}
	}
}

// TestRingDistributionIsRoughlyUniform: with default virtual nodes, no
// shard should be starved or overloaded for random identifiers. The bound
// is loose (half to double the mean) — the test guards against gross
// placement bugs, not statistical perfection.
func TestRingDistributionIsRoughlyUniform(t *testing.T) {
	const nodes, keys = 4, 8000
	r, err := shard.NewRing(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, nodes)
	for i := 0; i < keys; i++ {
		counts[r.Owner("blob/"+filestore.NewID())]++
	}
	mean := keys / nodes
	for n, c := range counts {
		if c < mean/2 || c > mean*2 {
			t.Fatalf("shard %d owns %d of %d keys (mean %d): distribution badly skewed: %v", n, c, keys, mean, counts)
		}
	}
}

// TestRingDefaults covers parameter handling: vnodes <= 0 selects the
// default, and a ring needs at least one node.
func TestRingDefaults(t *testing.T) {
	r, err := shard.NewRing(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Nodes() != 3 {
		t.Fatalf("nodes=%d", r.Nodes())
	}
	want, err := shard.NewRing(3, shard.DefaultVNodes)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("key-%d", i)
		if r.Owner(k) != want.Owner(k) {
			t.Fatalf("vnodes 0 routes %q to %d, DefaultVNodes to %d", k, r.Owner(k), want.Owner(k))
		}
	}
	if _, err := shard.NewRing(0, 0); err == nil {
		t.Fatal("expected error for 0 nodes")
	}
	if _, err := shard.NewRing(-1, 0); err == nil {
		t.Fatal("expected error for negative nodes")
	}
}

// TestBackendCountMustMatchRing: a backend-count mismatch would silently
// route keys to the wrong store, so construction must fail loudly.
func TestBackendCountMustMatchRing(t *testing.T) {
	ring, err := shard.NewRing(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.NewMeta(ring, docdb.NewMemStore()); err == nil {
		t.Fatal("NewMeta accepted 1 backend for a 2-node ring")
	}
	fs, err := filestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shard.NewFiles(ring, fs); err == nil {
		t.Fatal("NewFiles accepted 1 store for a 2-node ring")
	}
}
