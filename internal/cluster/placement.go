// Package cluster turns N single-node utcqd processes into one logical
// store: a consistent-hash placement of trajectories over member nodes,
// a query router (utcqd -members) that owns the global id space and fans
// queries out by ownership, serving them through internal/server's
// handler set as its Backend, and a WAL-shipping replication follower
// that replays a leader's log against its own store.
//
// The division of labor with the rest of the system is deliberate:
// members stay plain utcqd servers with no cluster awareness, the
// router holds only soft state (rebuilt by Sync from member stats), and
// durability stays exactly where PR 4 put it — the leader's fsync-ack
// is the commit point, and a follower can never replay a record the
// leader could still lose (internal/ingest.ShipFrom reads the durable
// file image only).
package cluster

import (
	"fmt"
	"sort"

	"utcq/internal/store"
)

// Placement defaults: partitions bound how much placement metadata
// exists independently of data size, vnodes smooth the consistent-hash
// ring so node loads stay within a few percent of even.
const (
	DefaultPartitions = 64
	DefaultVNodes     = 64
)

// NodeNames returns the canonical names of an n-node cluster:
// "node-0" … "node-{n-1}".
func NodeNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("node-%d", i)
	}
	return out
}

// ringPoint is one vnode on the hash ring.
type ringPoint struct {
	hash uint64
	node int
}

// Placement maps global trajectory ids to member nodes: gid → partition
// (splitmix64, the same mix the store's hash shard assignment uses) →
// owning node (consistent hashing over vnodes).  Both steps are pure
// functions of the configuration, so every component — router, loadgen,
// a member filtering its share of a dataset — computes identical
// ownership without coordination.
type Placement struct {
	nodes      []string
	partitions int
	ring       []ringPoint
}

// NewPlacement builds the placement for the named nodes.  partitions
// and vnodes <= 0 select the defaults.  Node order matters: the ring
// hashes node indices, so the same names in the same order always
// reproduce the same placement.
func NewPlacement(nodes []string, partitions, vnodes int) *Placement {
	if partitions <= 0 {
		partitions = DefaultPartitions
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	p := &Placement{nodes: nodes, partitions: partitions}
	p.ring = make([]ringPoint, 0, len(nodes)*vnodes)
	for node := range nodes {
		base := store.Mix64(uint64(node + 1))
		for v := 0; v < vnodes; v++ {
			p.ring = append(p.ring, ringPoint{hash: store.Mix64(base + uint64(v)), node: node})
		}
	}
	sort.Slice(p.ring, func(i, j int) bool {
		if p.ring[i].hash != p.ring[j].hash {
			return p.ring[i].hash < p.ring[j].hash
		}
		// Hash ties (vanishingly rare) break by node index so the ring
		// order — and therefore ownership — stays deterministic.
		return p.ring[i].node < p.ring[j].node
	})
	return p
}

// Nodes returns the node names in ring order of definition.
func (p *Placement) Nodes() []string { return p.nodes }

// Partitions returns the partition count.
func (p *Placement) Partitions() int { return p.partitions }

// Partition returns the partition a global trajectory id hashes to.
func (p *Placement) Partition(gid int) int {
	return int(store.Mix64(uint64(gid)) % uint64(p.partitions))
}

// OwnerOfPartition returns the node index owning a partition: the first
// ring point at or clockwise of the partition's hash.
func (p *Placement) OwnerOfPartition(part int) int {
	h := store.Mix64(uint64(part))
	i := sort.Search(len(p.ring), func(i int) bool { return p.ring[i].hash >= h })
	if i == len(p.ring) {
		i = 0 // wrap: the ring is a circle
	}
	return p.ring[i].node
}

// Owner returns the node index owning a global trajectory id.
func (p *Placement) Owner(gid int) int {
	return p.OwnerOfPartition(p.Partition(gid))
}
