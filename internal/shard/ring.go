// Package shard scales the distributed tier horizontally: a consistent-hash
// ring with virtual nodes routes document and blob traffic across N
// metadata/file backends behind the same docdb.Store and filestore.Blobs
// interfaces the single-backend deployment uses, so the save/recover
// approaches fan out across shards with zero changes to their own code.
//
// Correctness rests on two properties the rest of the repo already
// provides. First, every persisted identifier is generated client-side
// (docdb.NewID, filestore.NewID) before the write is issued, so routing
// purely on (collection, id) is deterministic: the shard that stored a
// document is the shard every later reader computes, across processes and
// across time. Second, a transactional save's visibility point is a single
// root-document Put (core/txn.go), which lands on one deterministic shard —
// so read-your-writes holds exactly as in the single-backend case: a reader
// that sees the root document re-derives the same shard for every
// referenced artifact, and those writes completed before the root commit
// was issued.
//
// Placement does not weaken either property. A derived model's root
// document gets an id drawn until it routes beside its base's
// (Meta.NewIDNear), so a lineage's root documents share a shard and a
// recovery reads its chain in one request; which id is drawn depends on the
// base, but where an id routes still depends on nothing but the id.
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVNodes is the virtual-node count per backend when the caller
// passes vnodes <= 0. More virtual nodes smooth the key distribution;
// 64 per node keeps the worst shard within a few percent of the mean for
// the id volumes the experiments generate.
const DefaultVNodes = 64

// point is one virtual node on the ring.
type point struct {
	hash uint64
	node int
}

// Ring is an immutable consistent-hash ring over nodes*vnodes points.
// Construction is deterministic: the same (nodes, vnodes) pair always
// yields the same ring, in every process — the property that makes
// client-side routing a stable address instead of a cached lookup.
type Ring struct {
	points []point
	nodes  int
}

// NewRing builds a ring over the given number of nodes. vnodes <= 0
// selects DefaultVNodes.
func NewRing(nodes, vnodes int) (*Ring, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("shard: ring needs at least one node, got %d", nodes)
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{nodes: nodes, points: make([]point, 0, nodes*vnodes)}
	for n := 0; n < nodes; n++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{hash: hashKey(fmt.Sprintf("node/%d/vnode/%d", n, v)), node: n})
		}
	}
	// Ties are broken by node index so that even a (vanishingly unlikely)
	// hash collision between virtual nodes orders the same everywhere.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// Nodes returns the number of backends the ring routes across.
func (r *Ring) Nodes() int { return r.nodes }

// Owner maps a key to its backend: the first virtual node at or clockwise
// of the key's hash.
func (r *Ring) Owner(key string) int {
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: past the last point means the first point owns it
	}
	return r.points[i].node
}

// hashKey is FNV-1a 64 with a 64-bit avalanche finalizer — stable across
// processes and platforms, which the routing determinism argument requires
// (maphash, by design, is not). Raw FNV-1a disperses short structured keys
// poorly in the high bits the ring's point ordering depends on, which
// clusters virtual nodes and skews shard ownership badly (measured ~1.8×
// the mean on the worst of 4 shards); the finisher (splitmix64's mixer)
// spreads every input bit across the word and brings the skew within a
// few percent.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
