package rkv

import (
	"fmt"

	"repro/internal/actor"
	"repro/internal/core"
)

// Replica bundles one node's offloadable RKV actors.
type Replica struct {
	Node      *core.Node
	Consensus *Consensus
	Memtable  *Memtable
}

// Deployment is a replicated key-value store over a set of nodes; the
// first node starts as the Paxos leader.
type Deployment struct {
	Replicas []*Replica
}

// Leader returns the replica currently acting as leader (nil if none).
func (d *Deployment) Leader() *Replica {
	for _, r := range d.Replicas {
		if r.Consensus.IsLeader {
			return r
		}
	}
	return nil
}

// LeaderActor returns the leader's consensus actor ID for clients.
func (d *Deployment) LeaderActor() actor.ID {
	if l := d.Leader(); l != nil {
		return l.Consensus.Actor.ID
	}
	return 0
}

// Deploy registers the RKV actor set on each node. Actor IDs are
// baseID + 4k .. baseID + 4k+3 for replica k (consensus, memtable,
// sstable reader, compactor). onNIC offloads the consensus and Memtable
// actors to the SmartNIC where one exists; the SSTable read and
// compaction actors are always host-pinned.
func Deploy(nodes []*core.Node, baseID actor.ID, memLimit int, onNIC bool) (*Deployment, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("rkv: need at least one node")
	}
	d := &Deployment{}
	// Pre-compute consensus IDs so peers can be wired before creation.
	consID := make([]actor.ID, len(nodes))
	for k := range nodes {
		consID[k] = baseID + actor.ID(4*k)
	}
	for k, n := range nodes {
		memID := baseID + actor.ID(4*k) + 1
		sstID := baseID + actor.ID(4*k) + 2
		cmpID := baseID + actor.ID(4*k) + 3
		var peers []actor.ID
		for j, id := range consID {
			if j != k {
				peers = append(peers, id)
			}
		}
		sst := NewSSTStore()
		mt := NewMemtable(memID, memLimit, sstID, cmpID)
		cons := NewConsensus(consID[k], peers, memID, k == 0)
		cons.ballotOffset = uint64(k)
		if err := n.Register(NewSSTReader(sstID, sst), false, 0); err != nil {
			return nil, err
		}
		if err := n.Register(NewCompactor(cmpID, sst), false, 0); err != nil {
			return nil, err
		}
		if err := n.Register(mt.Actor, onNIC, 0); err != nil {
			return nil, err
		}
		if err := n.Register(cons.Actor, onNIC, 0); err != nil {
			return nil, err
		}
		d.Replicas = append(d.Replicas, &Replica{Node: n, Consensus: cons, Memtable: mt})
	}
	return d, nil
}

// TagShard labels every replica's offloadable actors with a scale-out
// shard index, so execution spans and metrics attribute work per shard
// when the group is one of several in a sharded deployment.
func (d *Deployment) TagShard(s int) {
	for _, r := range d.Replicas {
		for _, a := range []*actor.Actor{r.Consensus.Actor, r.Memtable.Actor} {
			a.Shard = int32(s)
			a.Sharded = true
		}
	}
}

// PutReq builds a write request payload. An empty value is stored and
// read back as an empty value.
func PutReq(key, value []byte) []byte { return encodeCmd(command{op: opPut, key: key, value: value}) }

// GetReq builds a read request payload.
func GetReq(key []byte) []byte { return encodeCmd(command{op: opGet, key: key}) }
